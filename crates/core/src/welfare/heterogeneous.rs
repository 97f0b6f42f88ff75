//! Heterogeneous-contact welfare: Lemma 1 in full generality.
//!
//! For arbitrary pairwise meeting rates `μ_{m,n}` the expected gain of a
//! request for item `i` at client `n` is
//!
//! ```text
//! U_{i,n}(x) = x_{i,n}·h(0⁺) + (1 − x_{i,n})·G(λ_{i,n}),
//! λ_{i,n} = Σ_{m ∈ S} x_{i,m}·μ_{m,n}
//! ```
//!
//! (the `(1 − x_{i,n})` factor is the paper's immediate-fulfillment term),
//! and the social welfare is `U(x) = Σ_i d_i Σ_n π_{i,n} U_{i,n}(x)`.
//! This module evaluates OPT on measured contact traces: rates are
//! estimated from the trace (memoryless approximation, §6.3) and fed to
//! the submodular greedy of Theorem 1.

use crate::allocation::AllocationMatrix;
use crate::demand::{DemandProfile, DemandRates};
use crate::utility::DelayUtility;

/// Symmetric pairwise contact-rate matrix `μ_{a,b}` over a node set.
#[derive(Clone, Debug, PartialEq)]
pub struct ContactRates {
    nodes: usize,
    /// Row-major `nodes × nodes`, symmetric, zero diagonal.
    rates: Vec<f64>,
}

impl ContactRates {
    /// All pairs meet at rate `mu` (zero diagonal).
    pub fn homogeneous(nodes: usize, mu: f64) -> Self {
        assert!(mu >= 0.0 && mu.is_finite());
        let mut rates = vec![mu; nodes * nodes];
        for a in 0..nodes {
            rates[a * nodes + a] = 0.0;
        }
        ContactRates { nodes, rates }
    }

    /// Build from a function of the (unordered) pair.
    pub fn from_fn(nodes: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut rates = vec![0.0; nodes * nodes];
        for a in 0..nodes {
            for b in (a + 1)..nodes {
                let mu = f(a, b);
                assert!(
                    mu >= 0.0 && mu.is_finite(),
                    "rate for ({a},{b}) must be ≥ 0"
                );
                rates[a * nodes + b] = mu;
                rates[b * nodes + a] = mu;
            }
        }
        ContactRates { nodes, rates }
    }

    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// Rate `μ_{a,b}`.
    #[inline]
    pub fn rate(&self, a: usize, b: usize) -> f64 {
        self.rates[a * self.nodes + b]
    }

    /// Set the rate of an (unordered) pair.
    pub fn set_rate(&mut self, a: usize, b: usize, mu: f64) {
        assert!(a != b, "diagonal rates are fixed at zero");
        assert!(mu >= 0.0 && mu.is_finite());
        self.rates[a * self.nodes + b] = mu;
        self.rates[b * self.nodes + a] = mu;
    }

    /// Mean off-diagonal rate (the `μ` a homogeneous approximation would
    /// use).
    pub fn mean_rate(&self) -> f64 {
        if self.nodes < 2 {
            return 0.0;
        }
        let total: f64 = self.rates.iter().sum();
        total / (self.nodes * (self.nodes - 1)) as f64
    }
}

/// A heterogeneous system: which nodes serve, which request, at what rates.
///
/// `servers[k]` is the node id backing column `k` of an
/// [`AllocationMatrix`]; `clients[j]` the node id of client `j` (the index
/// used by [`DemandProfile`]).
#[derive(Clone, Debug)]
pub struct HeterogeneousSystem {
    /// Pairwise meeting rates over the full node set.
    pub rates: ContactRates,
    /// Node ids acting as servers (allocation matrix columns).
    pub servers: Vec<usize>,
    /// Node ids acting as clients (demand profile columns).
    pub clients: Vec<usize>,
    /// Per-server cache capacity ρ.
    pub rho: usize,
}

impl HeterogeneousSystem {
    /// Pure-P2P system over all nodes of `rates`.
    pub fn pure_p2p(rates: ContactRates, rho: usize) -> Self {
        let all: Vec<usize> = (0..rates.nodes()).collect();
        HeterogeneousSystem {
            rates,
            servers: all.clone(),
            clients: all,
            rho,
        }
    }

    /// Dedicated system: `servers` and `clients` must be disjoint node-id
    /// lists (not checked — the welfare formulas are valid regardless, the
    /// distinction only matters for infinite-`h(0⁺)` utilities).
    pub fn dedicated(
        rates: ContactRates,
        servers: Vec<usize>,
        clients: Vec<usize>,
        rho: usize,
    ) -> Self {
        HeterogeneousSystem {
            rates,
            servers,
            clients,
            rho,
        }
    }

    /// Fulfillment rate `λ_{i,n}` seen by client node `client_node` for an
    /// item placed at the given server columns.
    pub fn fulfillment_rate(&self, holders: &[usize], client_node: usize) -> f64 {
        holders
            .iter()
            .map(|&col| self.rates.rate(self.servers[col], client_node))
            .sum()
    }
}

/// Welfare contribution of a single item under Lemma 1:
/// `d_i Σ_n π_{i,n} U_{i,n}(x)`.
///
/// `holders` lists the server *columns* currently caching the item.
pub fn item_welfare_heterogeneous(
    system: &HeterogeneousSystem,
    item: usize,
    holders: &[usize],
    demand: &DemandRates,
    profile: &DemandProfile,
    utility: &dyn DelayUtility,
) -> f64 {
    let d = demand.rate(item);
    if d == 0.0 {
        return 0.0;
    }
    let mut total = 0.0;
    for (j, &client_node) in system.clients.iter().enumerate() {
        let pi = profile.pi(item, j);
        if pi == 0.0 {
            continue;
        }
        let self_cached = holders
            .iter()
            .any(|&col| system.servers[col] == client_node);
        let g = if self_cached {
            debug_assert!(
                !utility.requires_dedicated(),
                "self-cached client with h(0+)=∞: use a dedicated population"
            );
            utility.h_zero()
        } else {
            let lambda = system.fulfillment_rate(holders, client_node);
            utility.gain(lambda)
        };
        if g == f64::NEG_INFINITY {
            return f64::NEG_INFINITY;
        }
        total += pi * g;
    }
    d * total
}

/// Full social welfare `U(x)` for a heterogeneous system (Lemma 1 summed
/// over items, Eq. 1).
pub fn social_welfare_heterogeneous(
    system: &HeterogeneousSystem,
    alloc: &AllocationMatrix,
    demand: &DemandRates,
    profile: &DemandProfile,
    utility: &dyn DelayUtility,
) -> f64 {
    assert_eq!(alloc.servers(), system.servers.len());
    assert_eq!(alloc.items(), demand.items());
    assert_eq!(profile.nodes(), system.clients.len());
    let mut total = 0.0;
    for item in 0..alloc.items() {
        let holders = alloc.holders(item);
        let w = item_welfare_heterogeneous(system, item, &holders, demand, profile, utility);
        if w == f64::NEG_INFINITY {
            return f64::NEG_INFINITY;
        }
        total += w;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::demand::Popularity;
    use crate::types::SystemModel;
    use crate::utility::{Exponential, Step};
    use crate::welfare::social_welfare_homogeneous;

    #[test]
    fn contact_rates_basics() {
        let mut r = ContactRates::homogeneous(4, 0.1);
        assert_eq!(r.rate(0, 0), 0.0);
        assert_eq!(r.rate(1, 2), 0.1);
        r.set_rate(1, 2, 0.5);
        assert_eq!(r.rate(2, 1), 0.5);
        let mean = r.mean_rate();
        assert!(mean > 0.1 && mean < 0.2);
    }

    #[test]
    fn from_fn_is_symmetric() {
        let r = ContactRates::from_fn(3, |a, b| (a + b) as f64 * 0.01);
        assert_eq!(r.rate(0, 2), r.rate(2, 0));
        assert_eq!(r.rate(0, 0), 0.0);
        assert!((r.rate(1, 2) - 0.03).abs() < 1e-15);
    }

    #[test]
    fn homogeneous_special_case_matches_closed_form() {
        // A heterogeneous evaluation with constant rates must reproduce the
        // homogeneous pure-P2P closed form (Eq. 5) when placements are
        // "generic" — here we average over requesters via the π profile, so
        // the (1 − x/N) factor appears exactly if each holder set has the
        // right size. Use x_i replicas on distinct servers and uniform π.
        let nodes = 20;
        let mu = 0.05;
        let items = 4;
        let rho = 2;
        let rates = ContactRates::homogeneous(nodes, mu);
        let system = HeterogeneousSystem::pure_p2p(rates, rho);
        let demand = Popularity::pareto(items, 1.0).demand_rates(1.0);
        let profile = DemandProfile::uniform(items, nodes);
        let utility = Step::new(1.0);

        let counts = crate::allocation::ReplicaCounts::new(vec![5, 3, 2, 1], nodes);
        let alloc = AllocationMatrix::from_counts(&counts, rho);
        let het = social_welfare_heterogeneous(&system, &alloc, &demand, &profile, &utility);

        let sys = SystemModel::pure_p2p(nodes, rho, mu);
        let hom = social_welfare_homogeneous(&sys, &demand, &utility, &counts.as_f64());
        assert!(
            (het - hom).abs() < 1e-10,
            "heterogeneous {het} vs homogeneous {hom}"
        );
    }

    #[test]
    fn dedicated_population_no_self_cache() {
        // Servers 0..3, clients 4..9: client gains come only from contact
        // rates to the holders.
        let rates = ContactRates::from_fn(10, |a, b| if a < 4 || b < 4 { 0.1 } else { 0.0 });
        let system = HeterogeneousSystem::dedicated(rates, vec![0, 1, 2, 3], (4..10).collect(), 2);
        let demand = DemandRates::new(vec![1.0]);
        let profile = DemandProfile::uniform(1, 6);
        let utility = Exponential::new(0.5);
        let mut alloc = AllocationMatrix::new(1, 4, 2);
        alloc.place(0, 0);
        alloc.place(0, 2);
        let w = social_welfare_heterogeneous(&system, &alloc, &demand, &profile, &utility);
        // Every client sees λ = 2 × 0.1 = 0.2 ⇒ gain = 0.2/0.7.
        let expect = 0.2 / 0.7;
        assert!((w - expect).abs() < 1e-12, "{w} vs {expect}");
    }

    #[test]
    fn submodularity_of_item_welfare() {
        // Theorem 1: marginal gain of adding a holder diminishes as the
        // holder set grows — checked on a heterogeneous instance.
        let rates = ContactRates::from_fn(8, |a, b| 0.01 * ((a * b) % 5 + 1) as f64);
        let system = HeterogeneousSystem::pure_p2p(rates, 3);
        let demand = DemandRates::new(vec![1.0]);
        let profile = DemandProfile::uniform(1, 8);
        let utility = Step::new(2.0);

        let small = vec![1usize];
        let large = vec![1usize, 3, 5];
        let new_holder = 6usize;
        let f = |set: &[usize]| {
            item_welfare_heterogeneous(&system, 0, set, &demand, &profile, &utility)
        };
        let mut small_plus = small.clone();
        small_plus.push(new_holder);
        let mut large_plus = large.clone();
        large_plus.push(new_holder);
        let gain_small = f(&small_plus) - f(&small);
        let gain_large = f(&large_plus) - f(&large);
        assert!(
            gain_small >= gain_large - 1e-12,
            "submodularity violated: {gain_small} < {gain_large}"
        );
    }

    #[test]
    fn zero_demand_items_are_free() {
        let rates = ContactRates::homogeneous(4, 0.1);
        let system = HeterogeneousSystem::pure_p2p(rates, 1);
        let demand = DemandRates::new(vec![0.0]);
        let profile = DemandProfile::uniform(1, 4);
        let w = item_welfare_heterogeneous(&system, 0, &[], &demand, &profile, &Step::new(1.0));
        assert_eq!(w, 0.0);
    }

    #[test]
    fn mean_rate_single_node() {
        assert_eq!(ContactRates::homogeneous(1, 0.5).mean_rate(), 0.0);
    }
}
