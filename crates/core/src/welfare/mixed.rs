//! Per-item delay-utilities: `h_i` differs across the catalog.
//!
//! §3.2: "Since different types of content may be subject to differing
//! user expectations, we allow each content item `i` … its own
//! delay-utility function `h_i`." All of §4's structure survives — the
//! welfare stays a sum of per-item concave terms, so the greedy of
//! Theorem 2 remains exact and Property 1 generalizes to
//! `d_i·φ_i(x̃_i) = d_j·φ_j(x̃_j)` with *item-specific* transforms.

use std::sync::Arc;

use impatience_obs::Recorder;

use super::homogeneous::{item_gain, welfare_sum};
use crate::allocation::ReplicaCounts;
use crate::demand::DemandRates;
use crate::solver::check_population;
use crate::solver::greedy::greedy_fill;
use crate::types::SystemModel;
use crate::utility::DelayUtility;

/// A catalog assigning each item its own delay-utility.
#[derive(Clone)]
pub struct UtilityCatalog {
    utilities: Vec<Arc<dyn DelayUtility>>,
}

impl UtilityCatalog {
    /// Build from one utility per item.
    ///
    /// # Panics
    /// Panics on an empty catalog.
    pub fn new(utilities: Vec<Arc<dyn DelayUtility>>) -> Self {
        assert!(!utilities.is_empty(), "catalog must not be empty");
        UtilityCatalog { utilities }
    }

    /// The same utility for every item (degenerate case).
    pub fn homogeneous(items: usize, utility: Arc<dyn DelayUtility>) -> Self {
        assert!(items > 0);
        UtilityCatalog {
            utilities: vec![utility; items],
        }
    }

    /// Number of items.
    pub fn items(&self) -> usize {
        self.utilities.len()
    }

    /// Utility of item `i`.
    pub fn utility(&self, i: usize) -> &dyn DelayUtility {
        self.utilities[i].as_ref()
    }
}

impl std::fmt::Debug for UtilityCatalog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list()
            .entries(self.utilities.iter().map(|u| u.kind()))
            .finish()
    }
}

/// Social welfare with per-item utilities under homogeneous contacts
/// (the mixed-`h_i` generalization of Eqs. 3/5): the sum of
/// [`social_welfare_homogeneous`](super::social_welfare_homogeneous)
/// over each item's own gain.
pub fn social_welfare_homogeneous_mixed(
    system: &SystemModel,
    demand: &DemandRates,
    catalog: &UtilityCatalog,
    counts: &[f64],
) -> f64 {
    assert_eq!(
        catalog.items(),
        demand.items(),
        "catalog/demand size mismatch"
    );
    assert_eq!(counts.len(), demand.items(), "allocation size mismatch");
    welfare_sum(demand.rates(), |i| {
        item_gain(system, catalog.utility(i), counts[i])
    })
}

/// Exact greedy optimum with per-item utilities (Theorem 2 still applies:
/// the objective is a sum of per-item concave functions of the counts):
/// the fill of [`greedy_homogeneous`](crate::solver::greedy::greedy_homogeneous)
/// over each item's own gain.
///
/// # Panics
/// Panics if some item's utility requires a dedicated population but
/// `system` is pure P2P.
pub fn greedy_homogeneous_mixed(
    system: &SystemModel,
    demand: &DemandRates,
    catalog: &UtilityCatalog,
) -> ReplicaCounts {
    assert_eq!(catalog.items(), demand.items());
    assert!(
        catalog
            .utilities
            .iter()
            .all(|u| check_population(system, u.as_ref()).is_ok()),
        "catalog contains h(0+)=∞ utilities: use a dedicated population"
    );
    let gain = |i: usize, x: u32| item_gain(system, catalog.utility(i), f64::from(x));
    greedy_fill(system, demand, gain, &mut Recorder::disabled())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::demand::Popularity;
    use crate::utility::{Exponential, Step};
    use crate::welfare::social_welfare_homogeneous;

    fn system() -> SystemModel {
        SystemModel::pure_p2p(50, 5, 0.05)
    }

    #[test]
    fn homogeneous_catalog_matches_single_utility_paths() {
        // A one-utility catalog is the plain greedy and welfare, bit for
        // bit, on both populations.
        let demand = Popularity::pareto(10, 1.0).demand_rates(1.0);
        let single = Step::new(5.0);
        let catalog = UtilityCatalog::homogeneous(10, Arc::new(Step::new(5.0)));
        let counts: Vec<f64> = (0..10).map(|i| 1.0 + i as f64 % 4.0).collect();
        for system in [system(), SystemModel::dedicated(40, 8, 3, 0.05)] {
            let mixed = social_welfare_homogeneous_mixed(&system, &demand, &catalog, &counts);
            let plain = social_welfare_homogeneous(&system, &demand, &single, &counts);
            assert_eq!(mixed.to_bits(), plain.to_bits());

            let g_mixed = greedy_homogeneous_mixed(&system, &demand, &catalog);
            let g_plain = crate::solver::greedy::greedy_homogeneous(&system, &demand, &single);
            assert_eq!(g_mixed, g_plain);
            let w_mixed =
                social_welfare_homogeneous_mixed(&system, &demand, &catalog, &g_mixed.as_f64());
            let w_plain = social_welfare_homogeneous(&system, &demand, &single, &g_plain.as_f64());
            assert_eq!(w_mixed.to_bits(), w_plain.to_bits());
        }
    }

    #[test]
    fn urgent_items_get_more_replicas_at_equal_demand() {
        // Two items with identical demand; item 0 is time-critical
        // (ν large ⇒ value decays fast), item 1 is patient. The optimal
        // cache must favor the urgent one.
        let demand = crate::demand::DemandRates::new(vec![1.0, 1.0]);
        let catalog = UtilityCatalog::new(vec![
            Arc::new(Exponential::new(2.0)),
            Arc::new(Exponential::new(0.01)),
        ]);
        // ρ = 1 keeps the 50-slot budget scarce (both items would saturate
        // the |S| cap under ρ = 5).
        let tight = SystemModel::pure_p2p(50, 1, 0.05);
        let opt = greedy_homogeneous_mixed(&tight, &demand, &catalog);
        assert!(
            opt.count(0) > opt.count(1),
            "urgent item got {} vs patient {}",
            opt.count(0),
            opt.count(1)
        );
    }

    #[test]
    fn mixed_greedy_beats_any_single_utility_greedy_on_mixed_catalogs() {
        // Solving with the wrong (uniform) impatience model must not beat
        // solving with the true mixed model, evaluated under the truth.
        let demand = Popularity::pareto(8, 1.0).demand_rates(1.0);
        let mut utilities: Vec<Arc<dyn DelayUtility>> = Vec::new();
        for i in 0..8 {
            if i % 2 == 0 {
                utilities.push(Arc::new(Step::new(1.0)));
            } else {
                utilities.push(Arc::new(Step::new(100.0)));
            }
        }
        let catalog = UtilityCatalog::new(utilities);
        let opt_mixed = greedy_homogeneous_mixed(&system(), &demand, &catalog);
        let w_mixed =
            social_welfare_homogeneous_mixed(&system(), &demand, &catalog, &opt_mixed.as_f64());
        for tau in [1.0, 10.0, 100.0] {
            let wrong =
                crate::solver::greedy::greedy_homogeneous(&system(), &demand, &Step::new(tau));
            let w_wrong =
                social_welfare_homogeneous_mixed(&system(), &demand, &catalog, &wrong.as_f64());
            assert!(
                w_mixed >= w_wrong - 1e-9,
                "mixed-aware greedy ({w_mixed}) lost to τ={tau} model ({w_wrong})"
            );
        }
    }

    #[test]
    fn debug_formats_kinds() {
        let catalog = UtilityCatalog::new(vec![
            Arc::new(Step::new(1.0)),
            Arc::new(Exponential::new(0.5)),
        ]);
        let s = format!("{catalog:?}");
        assert!(s.contains("Step") && s.contains("Exponential"));
        assert_eq!(catalog.items(), 2);
    }

    #[test]
    #[should_panic(expected = "catalog contains h(0+)=∞ utilities")]
    fn rejects_a_dedicated_only_item_in_pure_p2p() {
        let catalog = UtilityCatalog::new(vec![
            Arc::new(Step::new(1.0)),
            Arc::new(crate::utility::Power::new(1.5)),
        ]);
        let demand = crate::demand::DemandRates::new(vec![1.0, 1.0]);
        let _ = greedy_homogeneous_mixed(&system(), &demand, &catalog);
    }

    #[test]
    #[should_panic(expected = "catalog must not be empty")]
    fn rejects_empty_catalog() {
        let _ = UtilityCatalog::new(vec![]);
    }
}
