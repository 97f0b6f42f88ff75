//! Greedy optimal allocation under homogeneous contacts (Theorem 2).
//!
//! `U(x)` is concave in the replica counts, so adding one replica at a time
//! to the item with the largest marginal welfare yields the exact integer
//! optimum in `O(|I| + ρ|S| log |I|)` heap operations. "As the popular
//! items fill the cache with copies, the relative improvement … diminishes,
//! and the greedy rule will choose to create copies for other less popular
//! items" (§4.1).

use std::cell::Cell;
use std::collections::BinaryHeap;
use std::time::Instant;

use impatience_obs::{Recorder, Sink};

use super::{check_population, HeapKey, SolverError};
use crate::allocation::ReplicaCounts;
use crate::demand::DemandRates;
use crate::types::SystemModel;
use crate::utility::DelayUtility;
use crate::welfare::item_gain;

/// Lazily memoized table of the per-unit-demand expected gain `G(x)`.
///
/// The gain of holding `x` replicas depends only on the system shape and
/// the utility — not on which item holds them — yet each evaluation runs
/// adaptive quadrature. This table computes each `G(x)` once per *count*
/// (at most `|S| + 1` quadratures for the whole solve, against
/// O(|I|·ρ|S|) for a marginal recomputed per *(item, count)*) and replays
/// the cached value thereafter. Quadrature is deterministic, so the
/// memoized gains are bit-identical to the recomputed ones.
///
/// The memo is decoupled from any one solve so [`crate::solver::incremental`]
/// can carry it across delta re-solves: demand changes leave `G` untouched
/// (it never depends on `d_i`), so the cached values survive entirely.
pub struct GainMemo {
    /// `cache[x]` is `Some(G(x))` once evaluated; indices `0..=|S|`.
    cache: Vec<Cell<Option<f64>>>,
    /// Quadrature evaluations actually performed (cache misses),
    /// cumulative across `reset` calls.
    evaluations: Cell<u64>,
}

impl GainMemo {
    /// An empty memo for a system with `servers` cache columns.
    pub fn new(servers: usize) -> Self {
        GainMemo {
            cache: vec![Cell::new(None); servers + 1],
            evaluations: Cell::new(0),
        }
    }

    /// Forget every cached value (the evaluation counter keeps
    /// accumulating). Required when the contact rate μ changes: `G`
    /// depends on the system shape, not just the utility.
    pub(crate) fn reset(&mut self) {
        for slot in &self.cache {
            slot.set(None);
        }
    }

    /// Quadrature evaluations performed so far (cache misses).
    pub(crate) fn evaluations(&self) -> u64 {
        self.evaluations.get()
    }

    /// `G(x)`, evaluated by quadrature on first use and cached.
    pub fn gain(&self, system: &SystemModel, utility: &dyn DelayUtility, x: u32) -> f64 {
        let slot = &self.cache[x as usize];
        if let Some(cached) = slot.get() {
            return cached;
        }
        self.evaluations.set(self.evaluations.get() + 1);
        let value = item_gain(system, utility, f64::from(x));
        slot.set(Some(value));
        value
    }
}

/// The per-unit-demand marginal of taking an item from `x` to `x + 1`
/// replicas, from its per-unit gain `G`: `G(x+1) − G(x)`, where the first
/// replica under a cost-type utility (`G(x) = −∞`) is worth `+∞`. Theorem
/// 2's greedy and §4.1's hill climber both weigh it by the item's demand.
pub fn marginal(gain: impl Fn(u32) -> f64, x: u32) -> f64 {
    let next = gain(x + 1);
    let curr = gain(x);
    if curr == f64::NEG_INFINITY {
        f64::INFINITY
    } else {
        next - curr
    }
}

/// The greedy's heap key for an item of demand `d` holding `x` replicas:
/// its [`marginal`] times `d`. [`super::incremental`] keys its entries
/// with this same function, so its exchange orders entries exactly as the
/// scratch greedy pops them.
pub(crate) fn greedy_key(gain: impl Fn(u32) -> f64, x: u32, d: f64) -> HeapKey {
    HeapKey::gain(marginal(gain, x) * d, d)
}

/// Theorem 2's fill, for one utility or one per item: a heap entry per
/// demanded item, keyed by [`greedy_key`] over that item's gain
/// `gain(i, ·)`; each of the `ρ|S|` pops adds a replica, emits a
/// `solver_step` with the key taken, and re-keys the item at its next
/// count below `|S|`.
pub(crate) fn greedy_fill<S: Sink>(
    system: &SystemModel,
    demand: &DemandRates,
    gain: impl Fn(usize, u32) -> f64,
    rec: &mut Recorder<S>,
) -> ReplicaCounts {
    let servers = system.servers();
    let mut counts = ReplicaCounts::zero(demand.items(), servers);
    let budget = system.total_slots() as u64;
    if budget == 0 {
        return counts;
    }
    let key_for = |x: u32, i: usize| greedy_key(|x| gain(i, x), x, demand.rate(i));
    let mut heap: BinaryHeap<(HeapKey, usize)> = (0..demand.items())
        .filter(|&i| demand.rate(i) > 0.0)
        .map(|i| (key_for(0, i), i))
        .collect();
    for placed in 0..budget {
        let Some((key, i)) = heap.pop() else { break };
        counts.add(i);
        rec.solver_step("greedy", placed, i as u32, key.primary);
        let x = counts.count(i);
        if (x as usize) < servers {
            heap.push((key_for(x, i), i));
        }
    }
    counts
}

/// Exact optimal integer allocation under homogeneous contacts
/// (Theorem 2). Fills the entire budget `ρ·|S|` (marginals are always
/// ≥ 0 since `h` is non-increasing), capping each item at `|S|` replicas.
///
/// # Panics
/// Panics if the utility requires a dedicated population but `system` is
/// pure P2P, or if the demand catalog is empty.
pub fn greedy_homogeneous(
    system: &SystemModel,
    demand: &DemandRates,
    utility: &dyn DelayUtility,
) -> ReplicaCounts {
    greedy_homogeneous_observed(system, demand, utility, &mut Recorder::disabled())
}

/// [`greedy_homogeneous`] returning a typed [`SolverError`] instead of
/// panicking on invalid inputs.
pub fn try_greedy_homogeneous(
    system: &SystemModel,
    demand: &DemandRates,
    utility: &dyn DelayUtility,
) -> Result<ReplicaCounts, SolverError> {
    try_greedy_homogeneous_observed(system, demand, utility, &mut Recorder::disabled())
}

/// [`greedy_homogeneous`] with instrumentation: each placement emits a
/// `solver_step` carrying the marginal gain taken (the full marginal-gain
/// trajectory, non-increasing by concavity), and a final `solver_done`
/// reports placements, quadrature evaluations (cache *misses* of the
/// memoized gain table — at most `|S| + 1` per solve), and wall time.
pub fn greedy_homogeneous_observed<S: Sink>(
    system: &SystemModel,
    demand: &DemandRates,
    utility: &dyn DelayUtility,
    rec: &mut Recorder<S>,
) -> ReplicaCounts {
    match try_greedy_homogeneous_observed(system, demand, utility, rec) {
        Ok(counts) => counts,
        Err(e) => panic!("{e}"),
    }
}

/// [`greedy_homogeneous_observed`] returning a typed [`SolverError`]
/// instead of panicking on invalid inputs.
pub fn try_greedy_homogeneous_observed<S: Sink>(
    system: &SystemModel,
    demand: &DemandRates,
    utility: &dyn DelayUtility,
    rec: &mut Recorder<S>,
) -> Result<ReplicaCounts, SolverError> {
    let _span = impatience_obs::span!("solve.greedy");
    check_population(system, utility)?;
    // A zero budget places nothing and reports nothing.
    let wall_start = (rec.is_active() && system.total_slots() > 0).then(Instant::now);
    let gains = GainMemo::new(system.servers());
    let counts = greedy_fill(system, demand, |_, x| gains.gain(system, utility, x), rec);
    if let Some(start) = wall_start {
        rec.solver_done(
            "greedy",
            counts.total(),
            gains.evaluations(),
            start.elapsed().as_secs_f64(),
        );
    }
    Ok(counts)
}

/// Brute-force optimum by exhaustive enumeration — exponential, for tiny
/// instances only; used to validate the greedy in tests and property
/// tests.
pub fn brute_force_homogeneous(
    system: &SystemModel,
    demand: &DemandRates,
    utility: &dyn DelayUtility,
) -> (ReplicaCounts, f64) {
    use crate::welfare::social_welfare_homogeneous;
    let items = demand.items();
    let servers = system.servers() as u32;
    let budget = system.total_slots() as u64;
    assert!(
        (servers as u64 + 1).pow(items as u32) <= 2_000_000,
        "instance too large for brute force"
    );

    let mut best: Option<(Vec<u32>, f64)> = None;
    let mut current = vec![0u32; items];
    loop {
        let total: u64 = current.iter().map(|&c| c as u64).sum();
        if total <= budget {
            let xs: Vec<f64> = current.iter().map(|&c| c as f64).collect();
            let w = social_welfare_homogeneous(system, demand, utility, &xs);
            if best.as_ref().is_none_or(|(_, bw)| w > *bw) {
                best = Some((current.clone(), w));
            }
        }
        // Odometer increment over {0..servers}^items.
        let mut pos = 0;
        loop {
            if pos == items {
                let (counts, w) = best.expect("at least the zero allocation is feasible");
                return (ReplicaCounts::new(counts, system.servers()), w);
            }
            if current[pos] < servers {
                current[pos] += 1;
                break;
            }
            current[pos] = 0;
            pos += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::demand::Popularity;
    use crate::utility::{Exponential, NegLog, Power, Step};
    use crate::welfare::social_welfare_homogeneous;

    #[test]
    fn fills_budget_and_respects_caps() {
        let system = SystemModel::pure_p2p(50, 5, 0.05);
        let demand = Popularity::pareto(50, 1.0).demand_rates(1.0);
        let utility = Step::new(1.0);
        let opt = greedy_homogeneous(&system, &demand, &utility);
        assert_eq!(opt.total(), 250);
        for i in 0..50 {
            assert!(opt.count(i) <= 50);
        }
    }

    #[test]
    fn popular_items_get_more_replicas() {
        let system = SystemModel::pure_p2p(50, 5, 0.05);
        let demand = Popularity::pareto(50, 1.0).demand_rates(1.0);
        for utility in [
            Box::new(Step::new(1.0)) as Box<dyn DelayUtility>,
            Box::new(Exponential::new(0.5)),
            Box::new(Power::new(0.0)),
        ] {
            let opt = greedy_homogeneous(&system, &demand, utility.as_ref());
            for i in 1..50 {
                assert!(
                    opt.count(i - 1) >= opt.count(i),
                    "{}: x[{}]={} < x[{}]={}",
                    utility.kind(),
                    i - 1,
                    opt.count(i - 1),
                    i,
                    opt.count(i)
                );
            }
        }
    }

    #[test]
    fn cost_utility_covers_every_item_first() {
        // With h(∞) = −∞ the first replica of each item is infinitely
        // valuable: no item may be left unreplicated when budget permits.
        let system = SystemModel::pure_p2p(50, 5, 0.05);
        let demand = Popularity::pareto(50, 1.0).demand_rates(1.0);
        let opt = greedy_homogeneous(&system, &demand, &Power::new(0.0));
        assert_eq!(opt.missing_items(), 0);
    }

    #[test]
    fn matches_brute_force_on_small_instances() {
        let system = SystemModel::dedicated(6, 3, 2, 0.2);
        let demand = Popularity::pareto(4, 1.0).demand_rates(1.0);
        for utility in [
            Box::new(Step::new(1.5)) as Box<dyn DelayUtility>,
            Box::new(Exponential::new(0.8)),
            Box::new(Power::new(0.5)),
            Box::new(Power::new(1.5)),
        ] {
            let greedy = greedy_homogeneous(&system, &demand, utility.as_ref());
            let (_, w_best) = brute_force_homogeneous(&system, &demand, utility.as_ref());
            let w_greedy =
                social_welfare_homogeneous(&system, &demand, utility.as_ref(), &greedy.as_f64());
            assert!(
                w_greedy >= w_best - 1e-9,
                "{}: greedy {w_greedy} < brute {w_best}",
                utility.kind()
            );
        }
    }

    #[test]
    fn dominant_regime_at_extreme_alpha() {
        // α → 2: optimal allocation skews hard toward the most demanded
        // items (Fig. 2 right edge).
        let system = SystemModel::dedicated(50, 50, 5, 0.05);
        let demand = Popularity::pareto(50, 1.0).demand_rates(1.0);
        let opt = greedy_homogeneous(&system, &demand, &Power::new(1.9));
        assert_eq!(opt.count(0), 50, "most popular item should saturate");
    }

    #[test]
    fn uniform_regime_at_extreme_negative_alpha() {
        // α → −∞: optimal allocation approaches uniform (Fig. 2 left
        // edge). At α = −20 the allocation exponent is 1/22, so counts
        // over a Pareto(1) catalog spread by at most a couple of replicas.
        let system = SystemModel::pure_p2p(50, 5, 0.05);
        let demand = Popularity::pareto(50, 1.0).demand_rates(1.0);
        let opt = greedy_homogeneous(&system, &demand, &Power::new(-20.0));
        let max = (0..50).map(|i| opt.count(i)).max().unwrap();
        let min = (0..50).map(|i| opt.count(i)).min().unwrap();
        assert!(max - min <= 2, "spread {max}−{min} too wide for α→−∞");
    }

    #[test]
    fn neglog_allocation_is_near_proportional() {
        // α = 1 ⇒ x_i ∝ d_i (Fig. 2 center). ρ = 1 keeps the most popular
        // item's target (≈ 96 of 200 replicas) inside the |S| = 200 cap.
        let system = SystemModel::dedicated(50, 200, 1, 0.05);
        let demand = Popularity::pareto(4, 1.0).demand_rates(1.0);
        let opt = greedy_homogeneous(&system, &demand, &NegLog::new());
        let total = opt.total() as f64;
        for i in 0..4 {
            let share = opt.count(i) as f64 / total;
            let expect = demand.rate(i) / demand.total();
            assert!(
                (share - expect).abs() < 0.02,
                "item {i}: share {share} vs demand {expect}"
            );
        }
    }

    #[test]
    fn zero_budget_returns_zero() {
        let system = SystemModel::pure_p2p(10, 0, 0.05);
        let demand = Popularity::uniform(5).demand_rates(1.0);
        let opt = greedy_homogeneous(&system, &demand, &Step::new(1.0));
        assert_eq!(opt.total(), 0);
    }

    #[test]
    fn budget_larger_than_catalog_capacity() {
        // ρ|S| > |I|·|S|: every item saturates at |S|.
        let system = SystemModel::pure_p2p(4, 10, 0.05);
        let demand = Popularity::uniform(3).demand_rates(1.0);
        let opt = greedy_homogeneous(&system, &demand, &Step::new(1.0));
        for i in 0..3 {
            assert_eq!(opt.count(i), 4);
        }
    }

    #[test]
    #[should_panic(expected = "requires a dedicated-node population")]
    fn rejects_time_critical_in_pure_p2p() {
        let system = SystemModel::pure_p2p(10, 2, 0.05);
        let demand = Popularity::uniform(5).demand_rates(1.0);
        let _ = greedy_homogeneous(&system, &demand, &Power::new(1.5));
    }

    #[test]
    fn observed_greedy_matches_and_gains_decrease() {
        use impatience_obs::{Event, MemorySink, Recorder};
        let system = SystemModel::pure_p2p(20, 3, 0.05);
        let demand = Popularity::pareto(10, 1.0).demand_rates(1.0);
        let utility = Step::new(1.0);
        let plain = greedy_homogeneous(&system, &demand, &utility);
        let mut rec = Recorder::new(MemorySink::new());
        let observed = greedy_homogeneous_observed(&system, &demand, &utility, &mut rec);
        assert_eq!(
            plain, observed,
            "instrumentation must not change the allocation"
        );

        let gains: Vec<f64> = rec
            .sink()
            .events
            .iter()
            .filter_map(|e| match e {
                Event::SolverStep {
                    solver: "greedy",
                    value,
                    ..
                } => Some(*value),
                _ => None,
            })
            .collect();
        assert_eq!(
            gains.len() as u64,
            observed.total(),
            "one step per placement"
        );
        for w in gains.windows(2) {
            assert!(
                w[0] >= w[1] - 1e-12,
                "marginal gains must not increase: {w:?}"
            );
        }
        match rec.sink().events.last() {
            Some(Event::SolverDone {
                solver: "greedy",
                iterations,
                evaluations,
                ..
            }) => {
                assert_eq!(*iterations, observed.total());
                // The memoized ψ-table caps quadrature work at one
                // evaluation per replica level, independent of |I| and
                // the number of heap probes.
                assert!(
                    *evaluations <= system.servers() as u64 + 1,
                    "expected at most |S|+1 quadrature evaluations, got {evaluations}"
                );
                assert!(
                    *evaluations < *iterations,
                    "memoization should evaluate fewer gains ({evaluations}) than placements ({iterations})"
                );
            }
            other => panic!("expected SolverDone, got {other:?}"),
        }
    }

    #[test]
    fn gain_table_matches_uncached_quadrature() {
        // The memoized table must replay bit-identical values: quadrature
        // is deterministic, so a cache hit and a recomputation agree
        // exactly.
        use crate::welfare::{expected_gain_continuous, expected_gain_pure_p2p};
        let utility = Step::new(1.0);
        for system in [
            SystemModel::pure_p2p(8, 3, 0.05),
            SystemModel::dedicated(40, 8, 3, 0.05),
        ] {
            let table = GainMemo::new(system.servers());
            for x in 0..=system.servers() as u32 {
                let uncached = if system.population.is_pure_p2p() {
                    expected_gain_pure_p2p(
                        &utility,
                        f64::from(x),
                        system.clients(),
                        system.contact_rate,
                    )
                } else {
                    expected_gain_continuous(&utility, f64::from(x), system.contact_rate)
                };
                assert_eq!(
                    table.gain(&system, &utility, x).to_bits(),
                    uncached.to_bits(),
                    "memoized gain at x={x} must be bit-identical"
                );
                // Second call hits the cache and must not drift.
                assert_eq!(
                    table.gain(&system, &utility, x).to_bits(),
                    uncached.to_bits()
                );
            }
            // |S|+1 distinct gain levels were touched, once each.
            assert_eq!(table.evaluations(), system.servers() as u64 + 1);
        }
    }

    #[test]
    fn ignores_zero_demand_items() {
        let system = SystemModel::pure_p2p(5, 2, 0.05);
        let demand = DemandRates::new(vec![1.0, 0.0, 2.0]);
        let opt = greedy_homogeneous(&system, &demand, &Step::new(1.0));
        assert_eq!(opt.count(1), 0);
        assert_eq!(opt.total(), 10);
    }
}
