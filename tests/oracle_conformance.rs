//! Conformance satellites for the verification oracle: Theorem 1's
//! (1−1/e) guarantee checked against true brute-force optima, Theorem 2
//! exactness of the homogeneous greedy, Property 1's equilibrium
//! condition for every utility family, and a deterministic slice of the
//! scenario matrix.
//!
//! Instances stay tiny (|I| ≤ 5, ρ·|S| ≤ 10) so `brute_force_*` is
//! exhaustive and the true OPT — not a heuristic — anchors every bound.

use impatience_core::demand::{DemandProfile, DemandRates};
use impatience_core::numeric::tolerances;
use impatience_core::rng::Xoshiro256;
use impatience_core::solver::greedy::greedy_homogeneous;
use impatience_core::solver::het_greedy::greedy_heterogeneous;
use impatience_core::solver::relaxed::try_relaxed_optimum;
use impatience_core::types::SystemModel;
use impatience_core::utility::{Custom, DelayUtility, Exponential, NegLog, Power, Step};
use impatience_core::welfare::{
    social_welfare_heterogeneous, social_welfare_homogeneous, ContactRates, HeterogeneousSystem,
};
use impatience_obs::Recorder;
use impatience_oracle::{
    brute_force_heterogeneous, brute_force_homogeneous, run_matrix, CheckStatus, MatrixOptions,
};
use proptest::prelude::*;

const ONE_MINUS_INV_E: f64 = 1.0 - 1.0 / std::f64::consts::E;

/// A random *non-negative bounded* utility: the class Theorem 1's
/// (1−1/e) bound is stated for (h(0⁺) finite, h(∞) = 0).
fn arb_bounded_utility() -> impl Strategy<Value = Box<dyn DelayUtility>> {
    prop_oneof![
        (1.0f64..20.0).prop_map(|tau| Box::new(Step::new(tau)) as Box<dyn DelayUtility>),
        (0.05f64..2.0).prop_map(|nu| Box::new(Exponential::new(nu)) as Box<dyn DelayUtility>),
    ]
}

/// Random demand rates for a small catalog.
fn arb_demand(items: usize) -> impl Strategy<Value = DemandRates> {
    proptest::collection::vec(0.05f64..3.0, items).prop_map(DemandRates::new)
}

/// A random 4-node pure-P2P heterogeneous system with pairwise rates
/// drawn independently — small enough that `brute_force_heterogeneous`
/// enumerates all (1 + C(4,1) + C(4,2))⁴ cache configurations.
fn arb_p2p_system() -> impl Strategy<Value = HeterogeneousSystem> {
    proptest::collection::vec(0.01f64..0.15, 6).prop_map(|pair_rates| {
        let mut next = pair_rates.into_iter();
        let rates = ContactRates::from_fn(4, |_, _| next.next().expect("6 unordered pairs"));
        HeterogeneousSystem::pure_p2p(rates, 2)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Theorem 1: on heterogeneous instances the CELF greedy is within
    /// (1−1/e) of the *true* optimum, and never above it.
    #[test]
    fn theorem1_greedy_within_one_minus_inv_e_of_brute_opt(
        system in arb_p2p_system(),
        demand in arb_demand(4),
        utility in arb_bounded_utility(),
    ) {
        let profile = DemandProfile::uniform(4, 4);
        let (_, w_opt) = brute_force_heterogeneous(&system, &demand, &profile, utility.as_ref());
        let greedy = greedy_heterogeneous(&system, &demand, &profile, utility.as_ref());
        let w_greedy =
            social_welfare_heterogeneous(&system, &greedy, &demand, &profile, utility.as_ref());
        let scale = w_opt.abs().max(1.0);
        prop_assert!(
            w_greedy <= w_opt + 1e-9 * scale,
            "greedy {w_greedy} exceeds exhaustive OPT {w_opt}"
        );
        prop_assert!(
            w_greedy >= ONE_MINUS_INV_E * w_opt - 1e-9 * scale,
            "Theorem 1 violated: greedy {w_greedy} < (1−1/e)·{w_opt}"
        );
    }

    /// Cost-type utilities (here Power with α ∈ (0, 1)): the ratio bound
    /// is meaningless on negative welfare, but greedy must still be
    /// dominated by OPT and reach a finite value whenever OPT does.
    #[test]
    fn cost_type_greedy_is_dominated_by_brute_opt(
        system in arb_p2p_system(),
        demand in arb_demand(4),
        alpha in 0.1f64..0.9,
    ) {
        let utility = Power::new(alpha);
        let profile = DemandProfile::uniform(4, 4);
        let (_, w_opt) = brute_force_heterogeneous(&system, &demand, &profile, &utility);
        let greedy = greedy_heterogeneous(&system, &demand, &profile, &utility);
        let w_greedy = social_welfare_heterogeneous(&system, &greedy, &demand, &profile, &utility);
        let scale = w_opt.abs().max(1.0);
        prop_assert!(w_greedy <= w_opt + 1e-9 * scale);
        prop_assert!(
            w_opt == f64::NEG_INFINITY || w_greedy > f64::NEG_INFINITY,
            "greedy stuck at −∞ while OPT = {w_opt} is finite"
        );
    }

    /// Theorem 2: under homogeneous contacts the greedy allocation is
    /// *exactly* optimal — it matches the exhaustive optimum's welfare,
    /// not just its approximation bound.
    #[test]
    fn theorem2_homogeneous_greedy_matches_brute_force_exactly(
        servers in 2usize..6,
        rho in 1usize..3,
        demand in arb_demand(4),
        utility in arb_bounded_utility(),
        mu in 0.01f64..0.2,
    ) {
        let system = SystemModel::pure_p2p(servers, rho, mu);
        let (_, w_brute) = brute_force_homogeneous(&system, &demand, utility.as_ref());
        let counts = greedy_homogeneous(&system, &demand, utility.as_ref());
        let w_greedy =
            social_welfare_homogeneous(&system, &demand, utility.as_ref(), &counts.as_f64());
        let gap = (w_brute - w_greedy).abs() / w_brute.abs().max(1.0);
        prop_assert!(gap <= 1e-9, "greedy {w_greedy} vs brute {w_brute} (gap {gap:.3e})");
    }
}

/// Property 1 at the relaxed optimum: `d_i·φ(x̃_i)` equals the water
/// level λ across all interior items, for every utility family in the
/// paper's Table 1 (plus a quadrature-driven custom one). The residual
/// must sit below the solver's own convergence tolerance.
#[test]
fn property1_equilibrium_residual_below_solver_tolerance() {
    let families: Vec<(&str, Box<dyn DelayUtility>)> = vec![
        ("step", Box::new(Step::new(5.0))),
        ("exp", Box::new(Exponential::new(0.5))),
        ("power", Box::new(Power::new(0.5))),
        ("neglog", Box::new(NegLog::new())),
        (
            "custom",
            Box::new(
                Custom::new(|t| 1.0 / (1.0 + t), 1.0, 0.0)
                    .with_derivative(|t| 1.0 / ((1.0 + t) * (1.0 + t))),
            ),
        ),
    ];
    let mut rng = Xoshiro256::seed_from_u64(0x1EA);
    for (name, utility) in &families {
        // Time-critical families (h(0⁺) = ∞) are restricted to dedicated
        // populations; the relaxed program itself only sees |S|, ρ, μ.
        let system = if utility.requires_dedicated() {
            SystemModel::dedicated(4, 6, 2, 0.05)
        } else {
            SystemModel::pure_p2p(8, 2, 0.05)
        };
        let demand = DemandRates::new((0..6).map(|_| rng.range(0.2, 2.0)).collect());
        let relaxed = try_relaxed_optimum(&system, &demand, utility.as_ref())
            .unwrap_or_else(|e| panic!("{name}: relaxed solver failed: {e}"));
        let s = system.servers() as f64;
        let interior = relaxed
            .x
            .iter()
            .filter(|&&x| x > 1e-9 && x < s - 1e-9)
            .count();
        assert!(
            interior >= 2,
            "{name}: only {interior} interior item(s); equilibrium check is vacuous"
        );
        let residual = relaxed.equilibrium_residual(&system, &demand, utility.as_ref());
        assert!(
            residual < tolerances::EQUILIBRIUM_RESIDUAL,
            "{name}: equilibrium residual {residual:.3e} above solver tolerance {:e}",
            tolerances::EQUILIBRIUM_RESIDUAL
        );
    }
}

/// A deterministic slice of the conformance matrix: stable cell naming,
/// reproducible seeds, and zero invariant violations.
#[test]
fn matrix_slice_is_stable_and_violation_free() {
    let opts = MatrixOptions::quick(7).with_limit(10);
    let mut rec = Recorder::disabled();
    let records = run_matrix(&opts, &mut rec);
    assert_eq!(records.len(), 10);
    assert_eq!(records[0].name, "step/dedicated/hom/clean");
    for r in &records {
        assert_eq!(r.failed(), 0, "scenario {} reported a violation", r.name);
        for check in &r.results {
            if check.status == CheckStatus::Fail {
                panic!("{}/{}: {}", r.name, check.name, check.detail);
            }
        }
    }
    // Bit-level reproducibility of the slice from the same base seed.
    let again = run_matrix(&opts, &mut Recorder::disabled());
    for (a, b) in records.iter().zip(&again) {
        assert_eq!(a.seed, b.seed);
        assert_eq!(a.name, b.name);
        for (ra, rb) in a.results.iter().zip(&b.results) {
            assert_eq!(ra.status, rb.status, "{}/{}", a.name, ra.name);
            assert_eq!(
                ra.value.to_bits(),
                rb.value.to_bits(),
                "{}/{} value drifted",
                a.name,
                ra.name
            );
        }
    }
}
