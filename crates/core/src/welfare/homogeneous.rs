//! Homogeneous-contact welfare: Eqs. (2)–(5) of the paper.
//!
//! With `μ_{m,n} = μ` for all pairs, a request for an item with `x`
//! replicas is fulfilled after `Y ~ Exp(μx)` (continuous model) or after a
//! geometric number of slots (discrete model), and the social welfare
//! reduces to a sum of per-item terms.

use crate::demand::DemandRates;
use crate::types::SystemModel;
use crate::utility::DelayUtility;

/// Per-request expected gain for an item with `replicas` copies under the
/// continuous-time, dedicated-node model (the inner term of Eq. 3):
/// `G(μ·x) = E[h(Y)]`, `Y ~ Exp(μ·x)`.
///
/// `replicas` may be fractional (relaxed allocations).
pub fn expected_gain_continuous(utility: &dyn DelayUtility, replicas: f64, mu: f64) -> f64 {
    debug_assert!(replicas >= 0.0 && mu > 0.0);
    utility.gain(mu * replicas)
}

/// Per-request expected gain in the pure-P2P case (inner term of Eq. 5):
/// with probability `x/N` the requester holds the item (gain `h(0⁺)`),
/// otherwise it waits for one of the `x` replicas.
///
/// # Panics
/// Panics (debug) if the utility has infinite `h(0⁺)` — the paper
/// restricts those families to dedicated nodes (§3.2).
pub fn expected_gain_pure_p2p(
    utility: &dyn DelayUtility,
    replicas: f64,
    nodes: usize,
    mu: f64,
) -> f64 {
    debug_assert!(
        !utility.requires_dedicated(),
        "{} has h(0+)=∞ and is restricted to the dedicated-node case",
        utility.kind()
    );
    let n = nodes as f64;
    let self_prob = (replicas / n).min(1.0);
    let gain = utility.gain(mu * replicas);
    if self_prob >= 1.0 {
        // Every node holds the item; h(0+) alone (avoids 0·(−∞) below).
        return utility.h_zero();
    }
    if gain == f64::NEG_INFINITY {
        return f64::NEG_INFINITY;
    }
    self_prob * utility.h_zero() + (1.0 - self_prob) * gain
}

/// Per-request expected gain of an item holding `x` replicas under
/// homogeneous contacts in continuous time: the inner term of Eq. 5 on a
/// pure-P2P population, of Eq. 3 on a dedicated one. The continuous twin
/// of the slotted gain [`social_welfare_homogeneous_discrete`] sums; `x`
/// may be fractional.
pub fn item_gain(system: &SystemModel, utility: &dyn DelayUtility, x: f64) -> f64 {
    if system.population.is_pure_p2p() {
        expected_gain_pure_p2p(utility, x, system.clients(), system.contact_rate)
    } else {
        expected_gain_continuous(utility, x, system.contact_rate)
    }
}

/// `Σ_i d_i·g_i` with `g_i = gain(i)`: an item without demand contributes
/// nothing (even at `g_i = −∞`), and a demanded `−∞` term makes the
/// total `−∞`.
pub(crate) fn welfare_sum(demand: &[f64], gain: impl Fn(usize) -> f64) -> f64 {
    let mut total = 0.0;
    for (i, &d) in demand.iter().enumerate() {
        if d == 0.0 {
            continue;
        }
        let g = gain(i);
        if g == f64::NEG_INFINITY {
            return f64::NEG_INFINITY;
        }
        total += d * g;
    }
    total
}

/// Social welfare under homogeneous contacts, continuous time
/// (Eq. 3 dedicated / Eq. 5 pure P2P): `U(x) = Σ_i d_i·G_i(x_i)`.
///
/// `counts` may be fractional. Returns `−∞` if any demanded item is
/// unreplicated under a cost-type utility.
pub fn social_welfare_homogeneous(
    system: &SystemModel,
    demand: &DemandRates,
    utility: &dyn DelayUtility,
    counts: &[f64],
) -> f64 {
    assert_eq!(
        counts.len(),
        demand.items(),
        "allocation and demand catalog sizes differ"
    );
    welfare_sum(demand.rates(), |i| item_gain(system, utility, counts[i]))
}

/// Per-request expected gain under the discrete-time contact model with
/// slot length `delta` (inner term of Eqs. 2/4):
/// `h(δ) − Σ_{k≥1} (1−μδ)^{x·k} Δc(kδ)`.
///
/// Requires `μ·δ < 1` (a contact probability). The series is summed until
/// its geometric envelope drops below `1e-12` of the accumulated value.
fn item_gain_discrete(utility: &dyn DelayUtility, x: f64, mu: f64, delta: f64) -> f64 {
    assert!(
        delta > 0.0 && mu * delta < 1.0,
        "need μδ < 1 (got {})",
        mu * delta
    );
    if x == 0.0 {
        // q = 1: the sum telescopes to h(δ) − h(∞).
        return utility.h_infinity();
    }
    let q = (1.0 - mu * delta).powf(x);
    let mut sum = 0.0;
    let mut qk = 1.0;
    let mut k = 1u64;
    loop {
        qk *= q;
        let dc = utility.delta_c(k, delta);
        sum += qk * dc;
        // Δc of the families in use is bounded by a polynomial in k, so a
        // relative geometric cutoff terminates correctly.
        if k > 8 && qk * (dc.abs() + 1.0) * (k as f64) < 1e-13 * (sum.abs() + 1.0) {
            break;
        }
        if k > 10_000_000 {
            break; // safety valve for pathological (q ≈ 1) inputs
        }
        k += 1;
    }
    utility.h(delta) - sum
}

/// Social welfare under homogeneous contacts, discrete time
/// (Eq. 2 dedicated / Eq. 4 pure P2P).
pub fn social_welfare_homogeneous_discrete(
    system: &SystemModel,
    demand: &DemandRates,
    utility: &dyn DelayUtility,
    counts: &[f64],
    delta: f64,
) -> f64 {
    assert_eq!(counts.len(), demand.items());
    let mu = system.contact_rate;
    let n = system.clients() as f64;
    let pure_p2p = system.population.is_pure_p2p();
    welfare_sum(demand.rates(), |i| {
        let x = counts[i];
        if !pure_p2p {
            return item_gain_discrete(utility, x, mu, delta);
        }
        debug_assert!(!utility.requires_dedicated());
        let self_prob = (x / n).min(1.0);
        let wait_term = utility.h(delta) - item_gain_discrete(utility, x, mu, delta);
        // Eq. 4: h(δ) − (1 − x/N)·Σ…
        if wait_term.is_infinite() && self_prob >= 1.0 {
            utility.h(delta)
        } else {
            utility.h(delta) - (1.0 - self_prob) * wait_term
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::demand::Popularity;
    use crate::utility::{Exponential, NegLog, Power, Step};

    fn demand50() -> DemandRates {
        Popularity::pareto(50, 1.0).demand_rates(1.0)
    }

    #[test]
    fn dedicated_step_closed_form() {
        // Eq. 3 with step utility: U = Σ d_i (1 − e^{−μτ x_i})  (Table 1).
        let sys = SystemModel::dedicated(100, 50, 5, 0.05);
        let d = demand50();
        let u = Step::new(1.0);
        let counts = vec![5.0; 50];
        let got = social_welfare_homogeneous(&sys, &d, &u, &counts);
        let expect: f64 = d
            .rates()
            .iter()
            .map(|di| di * (1.0 - (-0.05f64 * 1.0 * 5.0).exp()))
            .sum();
        assert!((got - expect).abs() < 1e-12);
    }

    #[test]
    fn pure_p2p_corrections_shrink_with_population() {
        // The (1 − x/N) correction vanishes as N grows: pure-P2P welfare
        // approaches dedicated welfare (paper §4.2).
        let d = demand50();
        let u = Exponential::new(0.5);
        let counts = vec![3.0; 50];
        let dedicated = social_welfare_homogeneous(
            &SystemModel::dedicated(1000, 1000, 5, 0.05),
            &d,
            &u,
            &counts,
        );
        let small =
            social_welfare_homogeneous(&SystemModel::pure_p2p(10, 5, 0.05), &d, &u, &counts);
        let large =
            social_welfare_homogeneous(&SystemModel::pure_p2p(10_000, 5, 0.05), &d, &u, &counts);
        assert!((large - dedicated).abs() < (small - dedicated).abs());
        assert!((large - dedicated).abs() < 1e-3);
    }

    #[test]
    fn pure_p2p_self_cache_bonus() {
        // With x replicas among N pure-P2P nodes, welfare exceeds the
        // dedicated value because of immediate self-service.
        let d = demand50();
        let u = Step::new(1.0);
        let counts = vec![10.0; 50];
        let p2p = social_welfare_homogeneous(&SystemModel::pure_p2p(50, 5, 0.05), &d, &u, &counts);
        let ded =
            social_welfare_homogeneous(&SystemModel::dedicated(50, 50, 5, 0.05), &d, &u, &counts);
        assert!(p2p > ded);
    }

    #[test]
    fn unreplicated_item_with_cost_utility_is_neg_inf() {
        let sys = SystemModel::dedicated(10, 10, 5, 0.05);
        let d = demand50();
        let u = Power::new(0.0); // waiting cost, h(∞) = −∞
        let mut counts = vec![1.0; 50];
        counts[7] = 0.0;
        assert_eq!(
            social_welfare_homogeneous(&sys, &d, &u, &counts),
            f64::NEG_INFINITY
        );
    }

    #[test]
    fn unreplicated_item_without_demand_is_ignored() {
        let sys = SystemModel::dedicated(10, 10, 5, 0.05);
        let d = DemandRates::new(vec![1.0, 0.0]);
        let u = Power::new(0.0);
        let counts = vec![2.0, 0.0];
        let got = social_welfare_homogeneous(&sys, &d, &u, &counts);
        assert!(got.is_finite());
    }

    #[test]
    fn neglog_welfare_matches_table() {
        // Table 1: U = Σ d_i ln(x_i) − cst, with cst = −(ln μ + γ) per unit
        // demand. Differences of U across allocations must equal
        // Σ d_i Δln x_i exactly.
        let sys = SystemModel::dedicated(10, 10, 5, 0.05);
        let d = DemandRates::new(vec![2.0, 1.0]);
        let u = NegLog::new();
        let a = social_welfare_homogeneous(&sys, &d, &u, &[4.0, 2.0]);
        let b = social_welfare_homogeneous(&sys, &d, &u, &[2.0, 4.0]);
        let expect = 2.0 * (4.0f64 / 2.0).ln() + 1.0 * (2.0f64 / 4.0).ln();
        assert!(((a - b) - expect).abs() < 1e-12);
    }

    #[test]
    fn discrete_converges_to_continuous() {
        // Paper §3.4: the discrete-time model approaches the continuous
        // model as δ → 0.
        let sys = SystemModel::dedicated(100, 50, 5, 0.05);
        let d = demand50();
        let counts = vec![5.0; 50];
        for u in [
            Box::new(Step::new(1.0)) as Box<dyn DelayUtility>,
            Box::new(Exponential::new(0.5)),
        ] {
            let cont = social_welfare_homogeneous(&sys, &d, u.as_ref(), &counts);
            let mut prev_err = f64::INFINITY;
            for delta in [0.5, 0.1, 0.02] {
                let disc =
                    social_welfare_homogeneous_discrete(&sys, &d, u.as_ref(), &counts, delta);
                let err = (disc - cont).abs();
                assert!(err < prev_err, "δ={delta}: {err} ≥ {prev_err}");
                prev_err = err;
            }
            assert!(prev_err < 5e-3, "residual {prev_err}");
        }
    }

    #[test]
    fn discrete_step_exact_value() {
        // Step(τ), slot δ, x replicas: P(fulfilled within deadline) in the
        // discrete model is 1 − (1−μδ)^{x·(⌊τ/δ⌋+1)} … computed against the
        // direct geometric formula. Contacts in slot k ≥ 1 fulfill at kδ;
        // the request misses iff no contact in slots 1..=⌊τ/δ⌋… plus the
        // k=0 slot convention of Δc. Validate against brute-force series.
        let u = Step::new(1.0);
        let (mu, delta, x) = (0.05, 0.1, 4.0);
        let got = item_gain_discrete(&u, x, mu, delta);
        // Brute force: h(δ) − Σ_k (1−μδ)^{xk} Δc(kδ)
        let q = 1.0 - mu * delta;
        let brute: f64 = (1..=200u64)
            .map(|k| q.powf(x * k as f64) * u.delta_c(k, delta))
            .sum();
        assert!((got - (u.h(delta) - brute)).abs() < 1e-12);
    }

    #[test]
    fn discrete_zero_replicas() {
        let u = Step::new(1.0);
        assert_eq!(item_gain_discrete(&u, 0.0, 0.05, 0.1), 0.0);
        let p = Power::new(0.5);
        assert_eq!(item_gain_discrete(&p, 0.0, 0.05, 0.1), f64::NEG_INFINITY);
    }

    #[test]
    #[should_panic(expected = "μδ < 1")]
    fn discrete_rejects_large_slot() {
        let u = Step::new(1.0);
        let _ = item_gain_discrete(&u, 1.0, 0.5, 3.0);
    }

    #[test]
    fn welfare_monotone_in_replicas() {
        let sys = SystemModel::dedicated(100, 50, 5, 0.05);
        let d = demand50();
        let u = Exponential::new(1.0);
        let mut prev = f64::NEG_INFINITY;
        for x in 1..=10 {
            let counts = vec![x as f64; 50];
            let w = social_welfare_homogeneous(&sys, &d, &u, &counts);
            assert!(w > prev);
            prev = w;
        }
    }
}
