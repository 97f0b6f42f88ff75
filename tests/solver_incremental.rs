//! Property-based tests for the incremental re-optimization solver:
//! random instances and random delta sequences, asserting (a) exact mode
//! is bit-identical to from-scratch greedy at every step, (b) bounded-
//! staleness mode only reuses allocations whose welfare a certificate
//! proves within ε of fresh, and (c) certificates stay sound under
//! adversarial demand reversals and withdrawals. A golden test pins the
//! solver layer of the `ext_dynamic_demand` experiment to the two greedy
//! solves the engine historically performed.

use std::sync::Arc;

use impatience_core::demand::{DemandRates, Popularity};
use impatience_core::numeric::tolerances;
use impatience_core::solver::greedy::greedy_homogeneous;
use impatience_core::solver::incremental::{Delta, DeltaOutcome, DeltaSolver};
use impatience_core::types::SystemModel;
use impatience_core::utility::{DelayUtility, Exponential, Power, Step};
use impatience_core::welfare::social_welfare_homogeneous;
use proptest::prelude::*;

/// A random utility together with whether it needs a dedicated
/// population (`h(0⁺) = ∞` families).
fn arb_utility() -> impl Strategy<Value = Arc<dyn DelayUtility>> {
    prop_oneof![
        (0.5f64..30.0).prop_map(|tau| Arc::new(Step::new(tau)) as Arc<dyn DelayUtility>),
        (0.05f64..2.0).prop_map(|nu| Arc::new(Exponential::new(nu)) as Arc<dyn DelayUtility>),
        (-1.5f64..0.9).prop_map(|a| Arc::new(Power::new(a)) as Arc<dyn DelayUtility>),
    ]
}

/// A random small homogeneous instance: population shape, capacity,
/// contact rate, and initial demand. Cost-type utilities get a dedicated
/// population (they reject pure P2P by construction).
#[derive(Debug, Clone)]
struct Instance {
    system: SystemModel,
    demand: DemandRates,
    utility: Arc<dyn DelayUtility>,
}

fn arb_instance() -> impl Strategy<Value = Instance> {
    (
        (
            arb_utility(),
            2usize..11, // items
            3usize..13, // servers / nodes
            1usize..5,  // rho
        ),
        (
            0.01f64..0.1,                                  // mu
            0usize..2,                                     // dedicated?
            proptest::collection::vec(0.0f64..5.0, 2..11), // raw rates
        ),
    )
        .prop_map(
            |((utility, items, servers, rho), (mu, dedicated, mut raw))| {
                raw.resize(items, 0.7);
                let system = if dedicated == 1 || utility.requires_dedicated() {
                    SystemModel::dedicated(servers + 2, servers, rho, mu)
                } else {
                    SystemModel::pure_p2p(servers, rho, mu)
                };
                Instance {
                    system,
                    demand: DemandRates::new(raw),
                    utility,
                }
            },
        )
}

/// Random delta sequence over an `items`-sized catalog: demand nudges,
/// withdrawals to zero, and occasional budget changes.
fn arb_deltas(items: usize) -> impl Strategy<Value = Vec<Delta>> {
    proptest::collection::vec(
        prop_oneof![
            (0usize..items, 0.01f64..5.0).prop_map(|(item, rate)| Delta::Demand { item, rate }),
            (0usize..items, 0.01f64..5.0).prop_map(|(item, rate)| Delta::Demand { item, rate }),
            (0usize..items).prop_map(|item| Delta::Demand { item, rate: 0.0 }),
            (1usize..5).prop_map(Delta::CacheBudget),
        ],
        1..13,
    )
}

fn scratch(inst: &Instance, solver: &DeltaSolver) -> impatience_core::allocation::ReplicaCounts {
    let demand = DemandRates::new(solver.rates().to_vec());
    greedy_homogeneous(solver.system(), &demand, inst.utility.as_ref())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// (a) Exact mode: every delta step lands on the scratch greedy
    /// allocation bit-for-bit, whatever the instance or sequence.
    #[test]
    fn exact_mode_is_bit_identical_to_scratch(
        inst in arb_instance(),
        seq in arb_deltas(10),
    ) {
        let mut solver = DeltaSolver::new(inst.system, &inst.demand, Arc::clone(&inst.utility));
        prop_assert_eq!(solver.counts(), &scratch(&inst, &solver));
        for (step, delta) in seq.into_iter().enumerate() {
            let delta = clamp_to_items(delta, inst.demand.items());
            let out = solver.apply(&[delta]).expect("exact deltas cannot fail");
            prop_assert!(
                matches!(out, DeltaOutcome::Resolved { .. }),
                "exact mode produced {out:?}"
            );
            prop_assert!(
                solver.counts() == &scratch(&inst, &solver),
                "diverged at step {step}"
            );
        }
    }

    /// (b) + (c) Bounded-staleness mode: an accepted certificate implies
    /// the stale welfare really is within ε·scale of a fresh solve, and
    /// a rejected one falls back to the exact (bit-identical) path.
    #[test]
    fn staleness_certificates_are_sound(
        inst in arb_instance(),
        seq in arb_deltas(10),
        eps in 0.001f64..0.2,
    ) {
        let mut solver = DeltaSolver::new(inst.system, &inst.demand, Arc::clone(&inst.utility))
            .with_staleness(eps);
        for delta in seq {
            let delta = clamp_to_items(delta, inst.demand.items());
            let out = solver.apply(&[delta]).expect("deltas cannot fail");
            let fresh = scratch(&inst, &solver);
            match out {
                DeltaOutcome::CertifiedStale(cert) => {
                    prop_assert!(cert.accepted);
                    prop_assert!(cert.gap <= cert.eps * cert.scale);
                    let current = DemandRates::new(solver.rates().to_vec());
                    let w_fresh = social_welfare_homogeneous(
                        solver.system(), &current, inst.utility.as_ref(), &fresh.as_f64());
                    let slack = tolerances::WELFARE_REL * cert.scale;
                    prop_assert!(
                        w_fresh - cert.stale_welfare <= cert.gap + slack,
                        "true gap {} exceeds certified {}",
                        w_fresh - cert.stale_welfare, cert.gap
                    );
                    // (b): within ε of fresh, on the certificate's scale.
                    prop_assert!(
                        w_fresh - cert.stale_welfare <= eps * cert.scale + slack,
                        "stale welfare drifted past ε"
                    );
                }
                _ => prop_assert_eq!(solver.counts(), &fresh),
            }
        }
    }

    /// (c) Adversarial shrink: reversing a popularity ranking in one
    /// batch is the worst realistic staleness event. At a tight ε it
    /// must either fall back to an exact solve or certify soundly —
    /// never silently keep a bad allocation.
    #[test]
    fn demand_reversal_never_slips_past_a_tight_certificate(
        items in 4usize..11,
        nodes in 4usize..13,
        rho in 1usize..4,
        omega in 0.5f64..1.5,
    ) {
        let system = SystemModel::pure_p2p(nodes, rho, 0.05);
        let utility: Arc<dyn DelayUtility> = Arc::new(Step::new(5.0));
        let before = Popularity::pareto(items, omega).demand_rates(1.0);
        let after: Vec<f64> = before.rates().iter().rev().copied().collect();
        let mut solver = DeltaSolver::new(system, &before, Arc::clone(&utility))
            .with_staleness(0.01);
        let reversal: Vec<Delta> = after
            .iter()
            .enumerate()
            .map(|(item, &rate)| Delta::Demand { item, rate })
            .collect();
        let out = solver.apply(&reversal).expect("demand deltas cannot fail");
        let demand = DemandRates::new(after);
        let fresh = greedy_homogeneous(&system, &demand, utility.as_ref());
        match out {
            DeltaOutcome::CertifiedStale(cert) => {
                let w_fresh =
                    social_welfare_homogeneous(&system, &demand, utility.as_ref(), &fresh.as_f64());
                prop_assert!(
                    w_fresh - cert.stale_welfare
                        <= cert.gap + tolerances::WELFARE_REL * cert.scale,
                    "reversal certified unsoundly"
                );
            }
            _ => prop_assert_eq!(solver.counts(), &fresh),
        }
    }
}

/// Proptest draws item indices from `0..10`; real catalogs may be
/// smaller, so fold the index into range instead of filtering cases.
fn clamp_to_items(delta: Delta, items: usize) -> Delta {
    match delta {
        Delta::Demand { item, rate } => Delta::Demand {
            item: item % items,
            rate,
        },
        other => other,
    }
}

/// Golden solver-layer regression for `ext_dynamic_demand`
/// (experiments/ext_dynamic_demand.toml: 50 items, 50 nodes, ρ=5,
/// μ=0.05, step:1, pareto demand reversed at mid-run): the engine now
/// derives OPT-stale and OPT-fresh from one DeltaSolver, and both must
/// equal the two from-scratch greedy solves it historically used — which
/// keeps the committed CSV byte-identical.
#[test]
fn dynamic_demand_solver_layer_is_pinned() {
    let system = SystemModel::pure_p2p(50, 5, 0.05);
    let utility = Step::new(1.0);
    let before = Popularity::pareto(50, 1.0).demand_rates(1.0);
    let after = DemandRates::new(before.rates().iter().rev().copied().collect());

    let mut solver = DeltaSolver::new(system, &before, Arc::new(Step::new(1.0)));
    let stale = solver.counts().clone();
    let shift: Vec<Delta> = after
        .rates()
        .iter()
        .enumerate()
        .map(|(item, &rate)| Delta::Demand { item, rate })
        .collect();
    solver
        .apply(&shift)
        .expect("the demand shift cannot fail to solve");

    assert_eq!(stale, greedy_homogeneous(&system, &before, &utility));
    assert_eq!(
        *solver.counts(),
        greedy_homogeneous(&system, &after, &utility)
    );
}

/// The grow and shrink loops on catalogs large enough that a miscounted
/// replica total would show: ρ raised, ρ lowered and a block of the most
/// popular items zeroed, each through `apply` and each equal to a scratch
/// greedy; then a 5 000-item catalog filled from scratch.
#[test]
fn large_catalog_budget_steps_match_scratch() {
    let utility: Arc<dyn DelayUtility> = Arc::new(Exponential::new(0.5));
    let scratch_of = |solver: &DeltaSolver| {
        let demand = DemandRates::new(solver.rates().to_vec());
        greedy_homogeneous(solver.system(), &demand, utility.as_ref())
    };

    let system = SystemModel::pure_p2p(50, 4, 0.05);
    let demand = Popularity::pareto(2_000, 0.8).demand_rates(1.0);
    let mut solver = DeltaSolver::new(system, &demand, Arc::clone(&utility));
    assert_eq!(*solver.counts(), scratch_of(&solver), "initial fill");
    let zero_block: Vec<Delta> = (0..300)
        .map(|item| Delta::Demand { item, rate: 0.0 })
        .collect();
    let steps = [
        vec![Delta::CacheBudget(9)],
        vec![Delta::CacheBudget(2)],
        zero_block,
        vec![Delta::CacheBudget(6)],
    ];
    for (step, deltas) in steps.iter().enumerate() {
        let out = solver.apply(deltas).expect("exact deltas cannot fail");
        assert!(
            matches!(out, DeltaOutcome::Resolved { moved } if moved > 0),
            "step {step}: {out:?}"
        );
        assert_eq!(*solver.counts(), scratch_of(&solver), "step {step}");
        assert_eq!(
            solver.counts().total(),
            solver.system().total_slots() as u64,
            "step {step}: the budget is filled"
        );
    }

    let system = SystemModel::pure_p2p(200, 10, 0.05);
    let demand = Popularity::pareto(5_000, 1.0).demand_rates(1.0);
    let solver = DeltaSolver::new(system, &demand, Arc::clone(&utility));
    assert_eq!(
        *solver.counts(),
        greedy_homogeneous(&system, &demand, utility.as_ref())
    );
}
