//! Lazy submodular greedy for heterogeneous contacts (Theorem 1).
//!
//! `U` is submodular over placements `(item, server)`, so greedy placement
//! one replica at a time achieves a `(1 − 1/e)` approximation of the
//! optimum under the per-server capacity constraint (Nemhauser–Wolsey–
//! Fisher; the paper uses exactly this greedy to compute OPT on the
//! Infocom and Cabspotting traces, §6.1).
//!
//! The implementation uses CELF-style *lazy evaluation*: stale marginal
//! gains stay in the heap and are recomputed only when popped, which is
//! valid because submodularity guarantees marginals never increase.

use std::collections::BinaryHeap;

use super::HeapKey;
use crate::allocation::AllocationMatrix;
use crate::demand::{DemandProfile, DemandRates};
use crate::utility::DelayUtility;
use crate::welfare::{item_welfare_heterogeneous, HeterogeneousSystem};

#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
struct Candidate {
    item: usize,
    server: usize,
    /// Round in which the key was computed (for lazy invalidation).
    round: u64,
}

/// Greedy `(1 − 1/e)`-approximate allocation for a heterogeneous system.
///
/// Runs `ρ·|S|` placement rounds; each round pops candidates until the top
/// of the heap carries a gain computed in the current round.
///
/// # Panics
/// Panics if the utility requires dedicated nodes but some client id also
/// appears as a server id (self-service would earn infinite utility).
pub fn greedy_heterogeneous(
    system: &HeterogeneousSystem,
    demand: &DemandRates,
    profile: &DemandProfile,
    utility: &dyn DelayUtility,
) -> AllocationMatrix {
    let _span = impatience_obs::span!("solve.het_greedy");
    let items = demand.items();
    let servers = system.servers.len();
    assert_eq!(profile.items(), items);
    assert_eq!(profile.nodes(), system.clients.len());
    if utility.requires_dedicated() {
        let overlap = system.clients.iter().any(|c| system.servers.contains(c));
        assert!(
            !overlap,
            "{} requires dedicated nodes (clients and servers must be disjoint)",
            utility.kind()
        );
    }

    let mut alloc = AllocationMatrix::new(items, servers, system.rho);
    if servers == 0 || system.rho == 0 || items == 0 {
        return alloc;
    }

    // Current welfare per item (holders start empty).
    let mut item_value: Vec<f64> = (0..items)
        .map(|i| item_welfare_heterogeneous(system, i, &[], demand, profile, utility))
        .collect();
    let mut holders: Vec<Vec<usize>> = vec![Vec::new(); items];

    let gain_of = |item: usize, server: usize, holders: &[usize], current: f64| -> f64 {
        let mut with: Vec<usize> = holders.to_vec();
        with.push(server);
        let new = item_welfare_heterogeneous(system, item, &with, demand, profile, utility);
        if current == f64::NEG_INFINITY {
            if new == f64::NEG_INFINITY {
                0.0
            } else {
                f64::INFINITY
            }
        } else {
            new - current
        }
    };

    let mut round: u64 = 0;
    let mut heap: BinaryHeap<(HeapKey, Candidate)> = BinaryHeap::new();
    #[allow(clippy::needless_range_loop)] // `item` indexes two parallel tables
    for item in 0..items {
        if demand.rate(item) == 0.0 {
            continue;
        }
        for server in 0..servers {
            let g = gain_of(item, server, &[], item_value[item]);
            heap.push((
                HeapKey::gain(g, demand.rate(item)),
                Candidate {
                    item,
                    server,
                    round,
                },
            ));
        }
    }

    let budget = system.rho * servers;
    let mut placed = 0usize;
    while placed < budget {
        let Some((key, cand)) = heap.pop() else { break };
        // Skip candidates invalidated by capacity or duplication.
        if alloc.free_slots(cand.server) == 0 || alloc.holds(cand.item, cand.server) {
            continue;
        }
        if cand.round == round {
            // Fresh gain: place it.
            alloc.place(cand.item, cand.server);
            holders[cand.item].push(cand.server);
            if key.primary.is_infinite() {
                item_value[cand.item] = item_welfare_heterogeneous(
                    system,
                    cand.item,
                    &holders[cand.item],
                    demand,
                    profile,
                    utility,
                );
            } else {
                item_value[cand.item] += key.primary;
            }
            placed += 1;
            round += 1;
        } else {
            // Stale: recompute and reinsert at the current round.
            let g = gain_of(
                cand.item,
                cand.server,
                &holders[cand.item],
                item_value[cand.item],
            );
            let key = HeapKey::gain(g, demand.rate(cand.item));
            heap.push((key, Candidate { round, ..cand }));
        }
    }
    alloc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::demand::Popularity;
    use crate::types::SystemModel;
    use crate::utility::{Exponential, Power, Step};
    use crate::welfare::{social_welfare_heterogeneous, social_welfare_homogeneous, ContactRates};

    #[test]
    fn fills_all_caches() {
        let rates = ContactRates::homogeneous(10, 0.05);
        let system = HeterogeneousSystem::pure_p2p(rates, 2);
        let demand = Popularity::pareto(8, 1.0).demand_rates(1.0);
        let profile = DemandProfile::uniform(8, 10);
        let alloc = greedy_heterogeneous(&system, &demand, &profile, &Step::new(1.0));
        for s in 0..10 {
            assert_eq!(alloc.free_slots(s), 0, "server {s} not filled");
        }
    }

    #[test]
    fn matches_homogeneous_greedy_welfare_on_constant_rates() {
        // With constant rates the heterogeneous greedy must achieve
        // (essentially) the homogeneous optimum.
        let nodes = 12;
        let mu = 0.05;
        let rho = 2;
        let rates = ContactRates::homogeneous(nodes, mu);
        let hsys = HeterogeneousSystem::pure_p2p(rates, rho);
        let demand = Popularity::pareto(10, 1.0).demand_rates(1.0);
        let profile = DemandProfile::uniform(10, nodes);
        let utility = Step::new(1.0);

        let het = greedy_heterogeneous(&hsys, &demand, &profile, &utility);
        let w_het = social_welfare_heterogeneous(&hsys, &het, &demand, &profile, &utility);

        let sys = SystemModel::pure_p2p(nodes, rho, mu);
        let hom = crate::solver::greedy::greedy_homogeneous(&sys, &demand, &utility);
        let w_hom = social_welfare_homogeneous(&sys, &demand, &utility, &hom.as_f64());

        // Heterogeneous evaluation of identical-rate systems differs from
        // Eq. (5) only in the (1−x/N) combinatorics of concrete
        // placements; the two optima must agree tightly.
        assert!(
            (w_het - w_hom).abs() < 5e-3 * w_hom.abs(),
            "het {w_het} vs hom {w_hom}"
        );
    }

    #[test]
    fn prefers_high_contact_servers() {
        // Node 0 meets everyone fast; node 3 meets no one. The single
        // replica of the only item must land on a well-connected server.
        let mut rates = ContactRates::homogeneous(4, 0.0);
        for b in 1..4 {
            rates.set_rate(0, b, 1.0);
        }
        // node 3 isolated except to 0.
        let system = HeterogeneousSystem::dedicated(rates, vec![0, 3], vec![1, 2], 1);
        let demand = DemandRates::new(vec![1.0]);
        let profile = DemandProfile::uniform(1, 2);
        let alloc = greedy_heterogeneous(&system, &demand, &profile, &Exponential::new(1.0));
        assert!(alloc.holds(0, 0), "item should be placed on the hub server");
    }

    #[test]
    fn cost_utility_covers_items_first() {
        let rates = ContactRates::homogeneous(6, 0.05);
        let system = HeterogeneousSystem::pure_p2p(rates, 2);
        let demand = Popularity::pareto(6, 1.0).demand_rates(1.0);
        let profile = DemandProfile::uniform(6, 6);
        let alloc = greedy_heterogeneous(&system, &demand, &profile, &Power::new(0.0));
        let counts = alloc.to_counts();
        assert_eq!(counts.missing_items(), 0);
    }

    #[test]
    fn respects_zero_demand() {
        let rates = ContactRates::homogeneous(4, 0.05);
        let system = HeterogeneousSystem::pure_p2p(rates, 1);
        let demand = DemandRates::new(vec![1.0, 0.0]);
        let profile = DemandProfile::uniform(2, 4);
        let alloc = greedy_heterogeneous(&system, &demand, &profile, &Step::new(1.0));
        assert_eq!(alloc.to_counts().count(1), 0);
    }

    #[test]
    fn greedy_beats_fixed_heuristics_on_skewed_rates() {
        // A strongly heterogeneous rate matrix: the greedy, which sees the
        // rates, must beat a rate-blind proportional allocation.
        let rates = ContactRates::from_fn(10, |a, b| {
            if a < 3 && b < 3 {
                0.5
            } else if a < 3 || b < 3 {
                0.05
            } else {
                0.001
            }
        });
        let system = HeterogeneousSystem::pure_p2p(rates, 2);
        let demand = Popularity::pareto(8, 1.0).demand_rates(1.0);
        let profile = DemandProfile::uniform(8, 10);
        let utility = Step::new(1.0);
        let alloc = greedy_heterogeneous(&system, &demand, &profile, &utility);
        let w_greedy = social_welfare_heterogeneous(&system, &alloc, &demand, &profile, &utility);

        let prop = crate::solver::fixed::proportional(&demand, 10, 2);
        let prop_matrix = AllocationMatrix::from_counts(&prop, 2);
        let w_prop =
            social_welfare_heterogeneous(&system, &prop_matrix, &demand, &profile, &utility);
        assert!(
            w_greedy > w_prop,
            "greedy {w_greedy} should beat blind proportional {w_prop}"
        );
    }

    #[test]
    #[should_panic(expected = "requires dedicated nodes")]
    fn rejects_overlapping_populations_for_time_critical() {
        let rates = ContactRates::homogeneous(4, 0.05);
        let system = HeterogeneousSystem::pure_p2p(rates, 1);
        let demand = DemandRates::new(vec![1.0]);
        let profile = DemandProfile::uniform(1, 4);
        let _ = greedy_heterogeneous(&system, &demand, &profile, &Power::new(1.5));
    }

    #[test]
    fn empty_system_edge_cases() {
        let rates = ContactRates::homogeneous(2, 0.05);
        let system = HeterogeneousSystem {
            rates,
            servers: vec![],
            clients: vec![0, 1],
            rho: 3,
        };
        let demand = DemandRates::new(vec![1.0]);
        let profile = DemandProfile::uniform(1, 2);
        let alloc = greedy_heterogeneous(&system, &demand, &profile, &Step::new(1.0));
        assert_eq!(alloc.servers(), 0);
    }
}
