//! Hill climbing by local cache manipulation — §4.1's remark made
//! concrete: "starting from a cache allocation, a hill climbing algorithm
//! with full knowledge can reach the optimal cache allocation only from
//! local manipulation of cache between nodes that are currently meeting."
//!
//! At each meeting the policy evaluates, with *global* knowledge of the
//! replica counts and demand (hence "full knowledge" — this is a
//! semi-centralized baseline, not a competitor to QCR's locality), every
//! single-slot replacement available to the two nodes:
//! `replace item j in this cache by item i` changes the counts by
//! `x_j −= 1, x_i += 1`. Because the homogeneous welfare is concave and
//! separable in the counts (Theorem 2), the best improving move is found
//! from per-item marginals, and repeated local moves converge to the
//! global optimum.

use std::sync::Arc;

use impatience_core::demand::DemandRates;
use impatience_core::rng::Xoshiro256;
use impatience_core::solver::greedy::{marginal, GainMemo};
use impatience_core::types::SystemModel;
use impatience_core::utility::DelayUtility;

use crate::metrics::Metrics;
use crate::policy::{Fulfillment, ReplicationPolicy};
use crate::state::SimState;

/// The §4.1 hill-climbing baseline (full knowledge, local moves only).
pub(crate) struct HillClimb {
    demand: DemandRates,
    utility: Arc<dyn DelayUtility>,
    system: SystemModel,
    /// The greedy's per-unit gain table `G(x)`, `x ∈ 0..=|S|`.
    gains: GainMemo,
}

impl HillClimb {
    /// Create the policy for a homogeneous system description matching
    /// the simulation (used to evaluate welfare marginals).
    pub(crate) fn new(
        system: SystemModel,
        demand: DemandRates,
        utility: Arc<dyn DelayUtility>,
    ) -> Self {
        HillClimb {
            gains: GainMemo::new(system.servers()),
            demand,
            utility,
            system,
        }
    }

    /// Per-unit-demand marginal of taking an item from `x` to `x+1`
    /// replicas (the greedy's rule, over the memoized gains).
    fn marginal(&self, x: u32) -> f64 {
        marginal(
            |x| self.gains.gain(&self.system, self.utility.as_ref(), x),
            x,
        )
    }

    /// Perform the best improving single-slot replacement available at
    /// `node`, if any. A node without a cache never moves; at one with a
    /// cache every count read is at most `|S|`, inside the gain table.
    fn improve_node(&self, node: usize, state: &mut SimState) {
        if state.caches.capacity_of(node) == 0 {
            return;
        }
        // Best item to add: the one with the largest up-marginal among
        // items this node does not yet hold (adding a duplicate to the
        // same cache is not a new replica).
        let mut best_add: Option<(f64, u32)> = None;
        for i in 0..state.items() {
            let d = self.demand.rate(i);
            if d == 0.0 || state.caches.holds(node, i as u32) {
                continue; // undemanded items earn nothing (0·∞ is NaN, not value)
            }
            let up = d * self.marginal(state.replicas[i]);
            if best_add.as_ref().is_none_or(|&(g, _)| up > g) {
                best_add = Some((up, i as u32));
            }
        }
        // Cheapest occupant to drop (never the sticky item; never the
        // last replica of an item when dropping it would cost ∞).
        let mut best_drop: Option<(f64, u32)> = None;
        let sticky = state.caches.node(node).sticky_item();
        for &j in state.caches.node(node).items() {
            if Some(j) == sticky {
                continue;
            }
            let d = self.demand.rate(j as usize);
            if d == 0.0 {
                // Undemanded occupants are free to drop.
                best_drop = Some((0.0, j));
                continue;
            }
            let down = d * self.marginal(state.replicas[j as usize] - 1);
            if best_drop.as_ref().is_none_or(|&(l, _)| down < l) {
                best_drop = Some((down, j));
            }
        }
        let Some((up, add)) = best_add else {
            return;
        };
        // A free slot (catalog smaller than capacity) is filled directly.
        if state.caches.node(node).len() < state.caches.node(node).capacity() {
            if up <= 0.0 {
                return;
            }
            let filled = state.caches.node_mut(node).fill(add);
            debug_assert!(filled);
            state.replicas[add as usize] += 1;
            state.transmissions += 1;
            return;
        }
        let Some((down, drop)) = best_drop else {
            return;
        };
        if up <= down + 1e-15 {
            return; // local optimum at this node
        }
        // Swap: drop `drop`, fetch `add` (one transmission).
        let swapped = state.caches.node_mut(node).swap_item(drop, add);
        debug_assert!(swapped);
        state.replicas[drop as usize] -= 1;
        state.replicas[add as usize] += 1;
        state.transmissions += 1;
    }
}

impl ReplicationPolicy for HillClimb {
    #[allow(clippy::too_many_arguments)]
    fn after_contact(
        &mut self,
        _t: f64,
        a: usize,
        b: usize,
        state: &mut SimState,
        _fulfilled: &[Fulfillment],
        _metrics: &mut Metrics,
        _rng: &mut Xoshiro256,
    ) {
        self.improve_node(a, state);
        self.improve_node(b, state);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ContactSource, SimConfig};
    use crate::engine::run_trial;
    use crate::policy::PolicyKind;
    use impatience_core::demand::Popularity;
    use impatience_core::solver::greedy::greedy_homogeneous;
    use impatience_core::utility::Step;
    use impatience_core::welfare::social_welfare_homogeneous;

    #[test]
    fn converges_to_near_optimal_welfare() {
        let nodes = 30;
        let rho = 3;
        let mu = 0.05;
        let items = 20;
        let system = SystemModel::pure_p2p(nodes, rho, mu);
        let demand = Popularity::pareto(items, 1.0).demand_rates(1.0);
        let utility = Step::new(2.0);

        let config = SimConfig::builder(items, rho)
            .demand(demand.clone())
            .utility(std::sync::Arc::new(utility))
            .bin(200.0)
            .warmup_fraction(0.5)
            .build();
        let source = ContactSource::homogeneous(nodes, mu, 3_000.0);
        let out = run_trial(&config, &source, PolicyKind::HillClimb, 11);
        let w_final = social_welfare_homogeneous(
            &system,
            &demand,
            &utility,
            &out.final_replicas
                .iter()
                .map(|&c| c as f64)
                .collect::<Vec<_>>(),
        );
        let opt = greedy_homogeneous(&system, &demand, &utility);
        let w_opt = social_welfare_homogeneous(&system, &demand, &utility, &opt.as_f64());
        assert!(
            w_final > 0.97 * w_opt,
            "hill climbing reached {w_final} vs optimum {w_opt}"
        );
        assert!(out.metrics.transmissions > 0, "no moves were made");
    }

    #[test]
    fn ignores_zero_demand_items_under_cost_utilities() {
        // Regression: 0·(−∞) = NaN once made undemanded items look
        // infinitely valuable under waiting-cost utilities.
        use impatience_core::utility::Power;
        let mut rates = vec![1.0; 6];
        rates.push(0.0); // item 6: never requested
        let demand = impatience_core::demand::DemandRates::new(rates);
        let config = SimConfig::builder(7, 2)
            .demand(demand)
            .utility(std::sync::Arc::new(Power::new(0.0)))
            .bin(100.0)
            .build();
        let source = ContactSource::homogeneous(8, 0.1, 1_500.0);
        let out = run_trial(&config, &source, PolicyKind::HillClimb, 2);
        assert!(
            out.final_replicas[6] <= 2,
            "undemanded item hoarded {} replicas",
            out.final_replicas[6]
        );
        // Demanded items must all keep healthy replication.
        for i in 0..6 {
            assert!(out.final_replicas[i] >= 1);
        }
    }

    #[test]
    fn respects_budget_and_sticky() {
        let config = SimConfig::builder(10, 2)
            .demand(Popularity::pareto(10, 1.0).demand_rates(1.0))
            .utility(std::sync::Arc::new(Step::new(1.0)))
            .bin(100.0)
            .build();
        let source = ContactSource::homogeneous(10, 0.1, 1_000.0);
        let out = run_trial(&config, &source, PolicyKind::HillClimb, 3);
        let total: u32 = out.final_replicas.iter().sum();
        assert_eq!(total, 20, "budget must be conserved");
        for (i, &x) in out.final_replicas.iter().enumerate() {
            assert!(x >= 1, "sticky copy of item {i} lost");
        }
    }
}
