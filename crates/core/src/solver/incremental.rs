//! Incremental re-optimization of the homogeneous greedy (Theorem 2)
//! under demand / contact-rate / budget deltas.
//!
//! The scratch greedy of [`super::greedy`] pops `ρ|S|` entries from a
//! heap keyed by `d_i·ΔG(x)`. Because the per-unit gain `G(x)` depends
//! only on the system shape and the utility — never on the demand — the
//! whole gain table survives a demand delta, and the optimum itself is
//! characterized *statelessly*: with per-item marginals non-increasing
//! in `x` (concavity of `G`), the greedy allocation is exactly the
//! top-`B` of the entry multiset `{(i, x) : d_i > 0, x < |S|}` under the
//! strict total order `(key, item)` that the scratch solver's
//! `BinaryHeap<(HeapKey, usize)>` pops in. [`DeltaSolver`] maintains that
//! top-`B` selection directly: it keeps the current allocation plus two
//! lazy heaps — the *frontier* (best entry not yet taken per item) and
//! the *selected* boundary (worst entry taken per item) — and after a
//! delta exchanges entries across the boundary until no frontier entry
//! beats a selected one. The fixed point is the unique top-`B`
//! selection, so exact-mode incremental solves are **bit-identical** to
//! a scratch [`greedy_homogeneous`](super::greedy::greedy_homogeneous)
//! (the differential oracle `delta_vs_scratch` and the
//! `tests/solver_incremental.rs` proptests pin this).
//!
//! A bounded-staleness mode ([`DeltaSolver::with_staleness`]) skips even
//! the exchange when it can *certify* the stale allocation: the relaxed
//! water-filling optimum `W̃` (warm-started from the previous water
//! level) upper-bounds the fresh integer optimum `W_fresh`, so
//! `W̃ − W_stale ≤ ε·scale` implies `W_fresh − W_stale ≤ ε·scale`
//! without ever computing `W_fresh`. When the certificate fails, the
//! solver falls back to the exact incremental exchange (which *is* the
//! from-scratch answer, bit for bit).

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

use super::greedy::{greedy_key, GainMemo};
use super::relaxed::try_relaxed_optimum_warm;
use super::{check_population, HeapKey, SolverError};
use crate::allocation::ReplicaCounts;
use crate::demand::DemandRates;
use crate::numeric::tolerances;
use crate::types::SystemModel;
use crate::utility::DelayUtility;
use crate::welfare::welfare_sum;

/// One change to the instance a [`DeltaSolver`] is tracking.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Delta {
    /// Set item `item`'s demand rate to `rate` (finite, ≥ 0; a zero rate
    /// withdraws the item — the optimum never allocates to zero demand).
    Demand {
        /// Catalog index of the item whose demand changes.
        item: usize,
        /// The new demand rate `d_i`.
        rate: f64,
    },
    /// Replace the homogeneous contact rate μ (finite, > 0). Structural:
    /// every cached gain depends on μ, so this forces a from-scratch
    /// rebuild (the memo is cleared, then repopulated lazily).
    ContactRate(f64),
    /// Replace the per-server cache capacity ρ. Changes only the slot
    /// budget `ρ|S|`, so the gain memo survives and the allocation is
    /// re-balanced incrementally (grown or shrunk at the boundary).
    CacheBudget(usize),
}

/// What [`DeltaSolver::apply`] did with a batch of deltas.
#[derive(Clone, Debug, PartialEq)]
pub enum DeltaOutcome {
    /// Exact incremental re-solve: the allocation now equals a scratch
    /// greedy solve bit-for-bit; `moved` replicas were added, removed,
    /// or exchanged to get there (0 = the optimum did not change).
    Resolved {
        /// Replica movements performed by the rebalance.
        moved: u64,
    },
    /// Bounded-staleness mode accepted the previous allocation: the
    /// certificate proves its welfare is within ε of a fresh solve, and
    /// the allocation was left untouched.
    CertifiedStale(StalenessCertificate),
    /// A structural delta (contact rate) forced a from-scratch rebuild.
    Rebuilt,
}

/// The evidence behind a [`DeltaOutcome::CertifiedStale`] decision.
///
/// Soundness: `relaxed_bound` is a weak-duality (Lagrangian) bound on
/// the fresh integer optimum `W_fresh` — for *any* multiplier `λ ≥ 0`,
/// `W_fresh ≤ Σ_i max_{0≤x≤|S|} (d_i·G(x) − λx) + λ·ρ|S|`, evaluated on
/// the true discrete gain (so it is valid for dedicated *and* pure-P2P
/// populations, where the fractional water-filling objective ignores the
/// self-caching term and is not itself a bound). With the bound inflated
/// by [`tolerances::RELAXED_BOUND_SLACK`] and `stale_welfare ≤ W_fresh`,
/// `gap = bound − stale_welfare ≥ W_fresh − stale_welfare`; accepting
/// only when `gap ≤ eps·scale` therefore guarantees the stale allocation
/// is within `ε` of fresh *without computing fresh*. The multiplier is
/// the warm-started relaxed water level, which makes the bound tight
/// when the continuous approximation is good and merely loose (never
/// unsound) when it is not.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StalenessCertificate {
    /// Welfare of the (stale) current allocation under the new demand.
    pub stale_welfare: f64,
    /// Lagrangian upper bound on any integer allocation's welfare under
    /// the new demand, at the relaxed water level's multiplier.
    pub relaxed_bound: f64,
    /// Certified bound on `W_fresh − stale_welfare` (clamped at 0).
    pub gap: f64,
    /// The scale the gap was certified against:
    /// `max(|relaxed_bound|, |stale_welfare|,` [`tolerances::CERT_SCALE_FLOOR`]`)`.
    pub scale: f64,
    /// The ε the certificate was checked at.
    pub eps: f64,
    /// Whether `gap ≤ eps·scale` held (accepted ⇒ allocation untouched).
    pub accepted: bool,
}

/// Cumulative counters for one [`DeltaSolver`]'s lifetime.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DeltaStats {
    /// Exact incremental re-solves performed (including certificate
    /// fallbacks and the initial solve).
    pub delta_solves: u64,
    /// From-scratch rebuilds forced by structural deltas.
    pub rebuilds: u64,
    /// Staleness certificates evaluated.
    pub certificates: u64,
    /// Certificates that accepted the stale allocation.
    pub certified_reuses: u64,
    /// Certificates that failed and fell back to the exact re-solve.
    pub certificate_fallbacks: u64,
    /// Total replica movements across all rebalances.
    pub replicas_moved: u64,
}

/// Incremental solver for the homogeneous allocation problem: holds the
/// memoized gain table and the last allocation, and re-optimizes under
/// [`Delta`] batches instead of solving from scratch.
///
/// See the [module docs](self) for the algorithm and its exactness
/// argument. In exact mode (the default), after every
/// [`apply`](DeltaSolver::apply) the allocation equals
/// [`greedy_homogeneous`](super::greedy::greedy_homogeneous) on the
/// current instance bit-for-bit. [`with_staleness`](DeltaSolver::with_staleness)
/// trades that for certified ε-approximate reuse of the old allocation.
pub struct DeltaSolver {
    system: SystemModel,
    utility: Arc<dyn DelayUtility>,
    /// Current demand rates (validated: finite, ≥ 0).
    rates: Vec<f64>,
    counts: ReplicaCounts,
    gains: GainMemo,
    /// Max-heap of candidate entries `(key_for(x_i, i), i)` at each
    /// item's current frontier level `x_i = counts[i]`. Entries are
    /// validated lazily on pop; stale ones are discarded.
    frontier: BinaryHeap<(HeapKey, usize)>,
    /// Min-heap (via `Reverse`) of boundary entries
    /// `(key_for(x_i − 1, i), i)` — the last entry each item took.
    selected: BinaryHeap<Reverse<(HeapKey, usize)>>,
    /// Items whose demand changed while a certificate kept the stale
    /// allocation: their heap entries are refreshed on the next exact
    /// re-solve.
    dirty: Vec<usize>,
    /// Water level of the last relaxed solve (warm-start for the next).
    level_hint: Option<f64>,
    /// Bounded-staleness ε (`None` = exact mode).
    eps: Option<f64>,
    stats: DeltaStats,
}

impl DeltaSolver {
    /// Build a solver and compute the initial exact allocation.
    ///
    /// # Panics
    /// Panics on the same invalid inputs as
    /// [`greedy_homogeneous`](super::greedy::greedy_homogeneous).
    pub fn new(system: SystemModel, demand: &DemandRates, utility: Arc<dyn DelayUtility>) -> Self {
        match Self::try_new(system, demand, utility) {
            Ok(solver) => solver,
            Err(e) => panic!("{e}"),
        }
    }

    /// [`DeltaSolver::new`] returning a typed [`SolverError`] instead of
    /// panicking.
    pub fn try_new(
        system: SystemModel,
        demand: &DemandRates,
        utility: Arc<dyn DelayUtility>,
    ) -> Result<Self, SolverError> {
        check_population(&system, utility.as_ref())?;
        let items = demand.items();
        let mut solver = DeltaSolver {
            gains: GainMemo::new(system.servers()),
            counts: ReplicaCounts::zero(items, system.servers()),
            system,
            utility,
            rates: demand.rates().to_vec(),
            frontier: BinaryHeap::new(),
            selected: BinaryHeap::new(),
            dirty: Vec::new(),
            level_hint: None,
            eps: None,
            stats: DeltaStats::default(),
        };
        solver.rebuild_heaps();
        let moved = solver.rebalance();
        solver.stats.delta_solves += 1;
        solver.stats.replicas_moved += moved;
        Ok(solver)
    }

    /// Switch to bounded-staleness mode: demand-only delta batches first
    /// try to certify the previous allocation within `eps` (relative, on
    /// the welfare scale) and only re-solve when the certificate fails.
    ///
    /// # Panics
    /// Panics unless `eps` is finite and ≥ 0.
    pub fn with_staleness(mut self, eps: f64) -> Self {
        assert!(eps.is_finite() && eps >= 0.0, "ε must be finite and ≥ 0");
        self.eps = Some(eps);
        self
    }

    /// Set or clear bounded-staleness mode in place.
    ///
    /// The borrowing form of [`with_staleness`](DeltaSolver::with_staleness),
    /// for long-lived solvers whose tolerance varies per request — the
    /// `impatience serve` solver pool reuses one warm solver across
    /// requests that each carry their own `stale_eps`. Passing `None`
    /// restores exact mode.
    ///
    /// # Panics
    /// Panics unless `eps` is `None` or finite and ≥ 0.
    pub fn set_staleness(&mut self, eps: Option<f64>) {
        if let Some(e) = eps {
            assert!(e.is_finite() && e >= 0.0, "ε must be finite and ≥ 0");
        }
        self.eps = eps;
    }

    /// Re-target the solver at an absolute demand vector, expressed as
    /// the delta batch between the current rates and `target`.
    ///
    /// Items whose rate already matches contribute no delta, so a warm
    /// solver serving a request stream pays only for the coordinates
    /// that actually moved. Returns the outcome of the implied
    /// [`apply`](DeltaSolver::apply) (`Resolved { moved: 0 }` when
    /// nothing changed).
    ///
    /// # Panics
    /// Panics if `target.len()` differs from the catalog size or any
    /// rate is non-finite or negative — same contract as
    /// [`DemandRates::new`](crate::demand::DemandRates::new).
    pub fn rebase_demand(&mut self, target: &[f64]) -> Result<DeltaOutcome, SolverError> {
        assert_eq!(
            target.len(),
            self.rates.len(),
            "demand vector length {} != catalog size {}",
            target.len(),
            self.rates.len()
        );
        let deltas: Vec<Delta> = target
            .iter()
            .enumerate()
            .filter(|&(i, &rate)| rate != self.rates[i])
            .map(|(i, &rate)| Delta::Demand { item: i, rate })
            .collect();
        self.apply(&deltas)
    }

    /// The current allocation. In exact mode this is bit-identical to a
    /// scratch greedy solve on the current instance; in bounded-staleness
    /// mode it may be a certified-stale allocation.
    pub fn counts(&self) -> &ReplicaCounts {
        &self.counts
    }

    /// The system model currently in effect (deltas mutate it).
    pub fn system(&self) -> &SystemModel {
        &self.system
    }

    /// The demand rates currently in effect.
    pub fn rates(&self) -> &[f64] {
        &self.rates
    }

    /// Lifetime counters: solves, rebuilds, certificates, movements.
    pub fn stats(&self) -> DeltaStats {
        self.stats
    }

    /// Social welfare of the current allocation under the current demand
    /// (the sum of
    /// [`social_welfare_homogeneous`](crate::welfare::social_welfare_homogeneous),
    /// served from the gain memo).
    pub fn welfare(&self) -> f64 {
        welfare_sum(&self.rates, |i| {
            self.gains
                .gain(&self.system, self.utility.as_ref(), self.counts.count(i))
        })
    }

    /// Apply a batch of deltas and re-optimize.
    ///
    /// Demand deltas are absorbed incrementally (or certified stale in
    /// bounded-staleness mode); a budget delta re-balances at the new
    /// `ρ|S|`; a contact-rate delta clears the gain memo and rebuilds
    /// from scratch. An empty batch is a no-op returning
    /// `Resolved { moved: 0 }`.
    ///
    /// # Panics
    /// Panics on a malformed delta: an out-of-range item index, a
    /// non-finite or negative demand rate, or a non-positive contact
    /// rate — same contract as [`DemandRates::new`].
    pub fn apply(&mut self, deltas: &[Delta]) -> Result<DeltaOutcome, SolverError> {
        let mut structural = false;
        let mut budget_changed = false;
        let mut touched: Vec<usize> = Vec::new();
        for delta in deltas {
            match *delta {
                Delta::Demand { item, rate } => {
                    assert!(item < self.rates.len(), "item {item} out of range");
                    assert!(
                        rate.is_finite() && rate >= 0.0,
                        "demand rate must be finite and ≥ 0, got {rate}"
                    );
                    if rate != self.rates[item] {
                        self.rates[item] = rate;
                        touched.push(item);
                    }
                }
                Delta::ContactRate(mu) => {
                    assert!(
                        mu.is_finite() && mu > 0.0,
                        "contact rate must be finite and > 0, got {mu}"
                    );
                    if mu != self.system.contact_rate {
                        self.system.contact_rate = mu;
                        structural = true;
                    }
                }
                Delta::CacheBudget(rho) => {
                    if rho != self.system.cache_capacity {
                        self.system.cache_capacity = rho;
                        budget_changed = true;
                    }
                }
            }
        }

        if structural {
            // μ invalidates every cached gain; nothing incremental
            // survives. Rebuild lazily from the (empty) memo.
            self.gains.reset();
            self.counts = ReplicaCounts::zero(self.rates.len(), self.system.servers());
            self.dirty.clear();
            self.rebuild_heaps();
            let moved = self.rebalance();
            self.level_hint = None;
            self.stats.rebuilds += 1;
            self.stats.replicas_moved += moved;
            return Ok(DeltaOutcome::Rebuilt);
        }

        if let (Some(eps), false, false) = (self.eps, budget_changed, touched.is_empty()) {
            self.stats.certificates += 1;
            if let Some(cert) = self.certify(eps) {
                if cert.accepted {
                    // Allocation untouched; remember which items' heap
                    // entries are now stale for a later exact pass.
                    self.dirty.extend_from_slice(&touched);
                    self.stats.certified_reuses += 1;
                    return Ok(DeltaOutcome::CertifiedStale(cert));
                }
            }
            self.stats.certificate_fallbacks += 1;
            // Fall through: the exact incremental exchange below *is*
            // the from-scratch fallback (bit-identical to scratch).
        }

        for item in std::mem::take(&mut self.dirty) {
            self.refresh_item(item);
        }
        for &item in &touched {
            self.refresh_item(item);
        }
        let moved = self.rebalance();
        self.stats.delta_solves += 1;
        self.stats.replicas_moved += moved;
        Ok(DeltaOutcome::Resolved { moved })
    }

    /// The scratch solver's heap key ([`greedy_key`]), computed from the
    /// *current* rates, so a cached gain replay yields bit-identical keys.
    fn key_for(&self, x: u32, i: usize) -> HeapKey {
        let gain = |x| self.gains.gain(&self.system, self.utility.as_ref(), x);
        greedy_key(gain, x, self.rates[i])
    }

    /// Budget actually reachable: the greedy stops early once every
    /// positive-demand item is capped at `|S|`.
    fn target(&self) -> u64 {
        let cap = self.system.servers();
        let positive = self.rates.iter().filter(|&&d| d > 0.0).count();
        (self.system.total_slots() as u64).min((positive * cap) as u64)
    }

    fn valid_frontier(&self, key: HeapKey, i: usize) -> bool {
        let x = self.counts.count(i);
        self.rates[i] > 0.0 && (x as usize) < self.system.servers() && key == self.key_for(x, i)
    }

    fn valid_selected(&self, key: HeapKey, i: usize) -> bool {
        let x = self.counts.count(i);
        self.rates[i] > 0.0 && x > 0 && key == self.key_for(x - 1, i)
    }

    /// Discard stale frontier entries until the top is valid; return it
    /// (still on the heap).
    fn peek_valid_frontier(&mut self) -> Option<(HeapKey, usize)> {
        loop {
            let &(key, i) = self.frontier.peek()?;
            if self.valid_frontier(key, i) {
                return Some((key, i));
            }
            self.frontier.pop();
        }
    }

    /// Discard stale selected entries until the top is valid; return it
    /// (still on the heap).
    fn peek_valid_selected(&mut self) -> Option<(HeapKey, usize)> {
        loop {
            let &Reverse((key, i)) = self.selected.peek()?;
            if self.valid_selected(key, i) {
                return Some((key, i));
            }
            self.selected.pop();
        }
    }

    /// Take item `i`'s frontier entry: one more replica, new frontier
    /// and boundary entries pushed.
    fn take(&mut self, i: usize) {
        self.counts.add(i);
        let x = self.counts.count(i);
        if (x as usize) < self.system.servers() {
            let key = self.key_for(x, i);
            self.frontier.push((key, i));
        }
        let key = self.key_for(x - 1, i);
        self.selected.push(Reverse((key, i)));
    }

    /// Return item `i`'s boundary entry to the frontier: one replica
    /// fewer.
    fn give_back(&mut self, i: usize) {
        let x = self.counts.count(i);
        debug_assert!(x > 0, "cannot give back from zero replicas");
        self.counts.remove(i);
        let key = self.key_for(x - 1, i);
        self.frontier.push((key, i));
        if x - 1 > 0 {
            let key = self.key_for(x - 2, i);
            self.selected.push(Reverse((key, i)));
        }
    }

    /// Re-seed item `i`'s heap entries after its demand rate changed
    /// (the old entries carry the old rate in their keys and die on
    /// validation). A rate of zero withdraws the item entirely.
    fn refresh_item(&mut self, i: usize) {
        if self.rates[i] == 0.0 {
            while self.counts.count(i) > 0 {
                self.counts.remove(i);
            }
            return;
        }
        let x = self.counts.count(i);
        if (x as usize) < self.system.servers() {
            let key = self.key_for(x, i);
            self.frontier.push((key, i));
        }
        if x > 0 {
            let key = self.key_for(x - 1, i);
            self.selected.push(Reverse((key, i)));
        }
    }

    /// Drop every heap entry and re-seed one frontier + one boundary
    /// entry per live item from the current allocation.
    fn rebuild_heaps(&mut self) {
        self.frontier.clear();
        self.selected.clear();
        for i in 0..self.rates.len() {
            self.refresh_item(i);
        }
    }

    /// Exchange entries across the selection boundary until the
    /// allocation is the top-`B` of the entry multiset — i.e. exactly
    /// the scratch greedy's answer. Returns replicas moved.
    ///
    /// The replica total is summed once and then moved with each
    /// `take`/`give_back`, so the fill costs `O(|I| + ρ|S| log |I|)`,
    /// not a catalog pass per replica.
    fn rebalance(&mut self) -> u64 {
        let mut moved = 0u64;
        let target = self.target();
        let mut total = self.counts.total();
        // Grow to the budget (initial solve, raised ρ, item arrivals)…
        while total < target {
            let Some((_, i)) = self.peek_valid_frontier() else {
                break;
            };
            self.frontier.pop();
            self.take(i);
            total += 1;
            moved += 1;
        }
        // …shrink past it (lowered ρ, items withdrawn)…
        while total > target {
            let Some((_, i)) = self.peek_valid_selected() else {
                break;
            };
            self.selected.pop();
            self.give_back(i);
            total -= 1;
            moved += 1;
        }
        debug_assert_eq!(total, self.counts.total());
        // …then swap while some outside entry strictly beats an inside
        // one. Strictness in the `(key, item)` tuple order guarantees
        // termination and mirrors the scratch heap's tie-breaking; a
        // same-item swap is impossible (marginals are non-increasing in
        // x, so an item's frontier entry never beats its own boundary).
        while let Some(best_in) = self.peek_valid_frontier() {
            let Some(worst_out) = self.peek_valid_selected() else {
                break;
            };
            if best_in <= worst_out {
                break;
            }
            self.frontier.pop();
            self.selected.pop();
            self.give_back(worst_out.1);
            self.take(best_in.1);
            moved += 2;
        }
        self.maybe_compact();
        moved
    }

    /// Rebuild the lazy heaps once the stale-entry debris outgrows the
    /// live set; amortized O(1) per push.
    fn maybe_compact(&mut self) {
        let live = 2 * self.rates.len() + 64;
        if self.frontier.len() + self.selected.len() > 4 * live {
            self.rebuild_heaps();
        }
    }

    /// Evaluate the staleness certificate at `eps` for the current
    /// (already-updated) demand against the untouched allocation.
    /// `None` when no multiplier is available (no demand at all, a
    /// failed relaxed solve, or a degenerate water level) — callers treat
    /// that as a failed certificate and re-solve exactly.
    fn certify(&mut self, eps: f64) -> Option<StalenessCertificate> {
        if !self.rates.iter().any(|&d| d > 0.0) {
            return None;
        }
        let demand = DemandRates::new(self.rates.clone());
        let relaxed = try_relaxed_optimum_warm(
            &self.system,
            &demand,
            self.utility.as_ref(),
            self.level_hint,
        )
        .ok()?;
        if relaxed.level.is_finite() && relaxed.level > 0.0 {
            self.level_hint = Some(relaxed.level);
        }
        if !relaxed.level.is_finite() || relaxed.level < 0.0 {
            return None;
        }
        let w_dual = self.dual_bound(relaxed.level);
        let w_stale = self.welfare();
        let bound = w_dual + tolerances::RELAXED_BOUND_SLACK * w_dual.abs();
        let gap = (bound - w_stale).max(0.0);
        let scale = w_dual
            .abs()
            .max(w_stale.abs())
            .max(tolerances::CERT_SCALE_FLOOR);
        let accepted = w_dual.is_finite() && w_stale.is_finite() && gap <= eps * scale;
        Some(StalenessCertificate {
            stale_welfare: w_stale,
            relaxed_bound: w_dual,
            gap,
            scale,
            eps,
            accepted,
        })
    }

    /// Weak-duality upper bound on the fresh integer optimum at
    /// multiplier `level ≥ 0`:
    /// `W* ≤ Σ_i max_{0≤x≤|S|} (d_i·G(x) − level·x) + level·ρ|S|`.
    ///
    /// Sound for *any* non-negative multiplier because every feasible
    /// allocation satisfies `Σx_i ≤ ρ|S|` — unlike the fractional
    /// water-filling objective, which drops the pure-P2P self-caching
    /// term and can undershoot the true optimum on small populations.
    /// Each per-item maximization walks the (memoized) discrete gains
    /// upward and stops at the first strict decrease, which concavity
    /// makes the global argmax.
    fn dual_bound(&self, level: f64) -> f64 {
        let servers = self.system.servers();
        let mut total = level * self.system.total_slots() as f64;
        for &d in self.rates.iter() {
            if d == 0.0 {
                continue;
            }
            let value_at = |x: u32| {
                d * self.gains.gain(&self.system, self.utility.as_ref(), x) - level * f64::from(x)
            };
            let mut best = value_at(0);
            for x in 1..=servers as u32 {
                let v = value_at(x);
                if v < best {
                    break;
                }
                best = v;
            }
            total += best;
            if total == f64::NEG_INFINITY {
                break;
            }
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::demand::Popularity;
    use crate::solver::greedy::greedy_homogeneous;
    use crate::utility::{Exponential, Power, Step};
    use crate::welfare::social_welfare_homogeneous;

    fn scratch(solver: &DeltaSolver) -> ReplicaCounts {
        let demand = DemandRates::new(solver.rates().to_vec());
        greedy_homogeneous(solver.system(), &demand, &Step::new(5.0))
    }

    #[test]
    fn initial_solve_matches_scratch_greedy() {
        let system = SystemModel::pure_p2p(20, 3, 0.05);
        let demand = Popularity::pareto(12, 1.0).demand_rates(1.0);
        let solver = DeltaSolver::new(system, &demand, Arc::new(Step::new(5.0)));
        assert_eq!(
            *solver.counts(),
            greedy_homogeneous(&system, &demand, &Step::new(5.0))
        );
    }

    #[test]
    fn single_demand_delta_tracks_scratch_bit_identically() {
        let system = SystemModel::pure_p2p(20, 3, 0.05);
        let demand = Popularity::pareto(12, 1.0).demand_rates(1.0);
        let mut solver = DeltaSolver::new(system, &demand, Arc::new(Step::new(5.0)));
        for (item, rate) in [(0usize, 0.01), (11, 5.0), (3, 0.0), (3, 1.2), (0, 0.9)] {
            let out = solver.apply(&[Delta::Demand { item, rate }]).unwrap();
            assert!(matches!(out, DeltaOutcome::Resolved { .. }));
            assert_eq!(
                *solver.counts(),
                scratch(&solver),
                "after d[{item}] = {rate}"
            );
        }
    }

    #[test]
    fn rebase_demand_tracks_scratch_and_skips_unchanged() {
        let system = SystemModel::pure_p2p(20, 3, 0.05);
        let demand = Popularity::pareto(12, 1.0).demand_rates(1.0);
        let mut solver = DeltaSolver::new(system, &demand, Arc::new(Step::new(5.0)));

        // Rebase onto the identical vector: a no-op.
        let before = solver.stats();
        let out = solver.rebase_demand(demand.rates()).unwrap();
        assert!(matches!(out, DeltaOutcome::Resolved { moved: 0 }));
        assert_eq!(solver.stats().replicas_moved, before.replicas_moved);

        // Rebase onto a shuffled vector: bit-identical to scratch.
        let mut target = demand.rates().to_vec();
        target.reverse();
        solver.rebase_demand(&target).unwrap();
        assert_eq!(solver.rates(), &target[..]);
        assert_eq!(*solver.counts(), scratch(&solver));
    }

    #[test]
    #[should_panic(expected = "catalog size")]
    fn rebase_demand_rejects_wrong_length() {
        let system = SystemModel::pure_p2p(10, 2, 0.05);
        let demand = DemandRates::new(vec![1.0, 0.5, 0.2]);
        let mut solver = DeltaSolver::new(system, &demand, Arc::new(Step::new(5.0)));
        let _ = solver.rebase_demand(&[1.0, 0.5]);
    }

    #[test]
    fn set_staleness_toggles_certificate_mode_in_place() {
        let system = SystemModel::pure_p2p(40, 4, 0.05);
        let demand = Popularity::pareto(16, 1.0).demand_rates(1.0);
        let utility: Arc<dyn DelayUtility> = Arc::new(Exponential::new(0.5));
        let mut solver = DeltaSolver::new(system, &demand, Arc::clone(&utility));

        let nudge = |d: &DemandRates, k: f64| Delta::Demand {
            item: 8,
            rate: d.rate(8) * k,
        };
        // Exact mode: the nudge re-solves.
        let out = solver.apply(&[nudge(&demand, 1.001)]).unwrap();
        assert!(matches!(out, DeltaOutcome::Resolved { .. }));

        // Loose ε in place: the next nudge certifies stale.
        solver.set_staleness(Some(0.05));
        let out = solver.apply(&[nudge(&demand, 1.002)]).unwrap();
        assert!(matches!(out, DeltaOutcome::CertifiedStale(_)));

        // Back to exact: allocation snaps back to scratch-greedy.
        solver.set_staleness(None);
        let out = solver.apply(&[nudge(&demand, 1.003)]).unwrap();
        assert!(matches!(out, DeltaOutcome::Resolved { .. }));
        let fresh = greedy_homogeneous(
            solver.system(),
            &DemandRates::new(solver.rates().to_vec()),
            utility.as_ref(),
        );
        assert_eq!(*solver.counts(), fresh);
    }

    #[test]
    fn budget_and_contact_deltas_track_scratch() {
        let system = SystemModel::dedicated(30, 5, 2, 0.05);
        let demand = Popularity::pareto(8, 1.0).demand_rates(1.0);
        let utility: Arc<dyn DelayUtility> = Arc::new(Exponential::new(0.5));
        let mut solver = DeltaSolver::new(system, &demand, Arc::clone(&utility));
        for delta in [
            Delta::CacheBudget(4),
            Delta::CacheBudget(1),
            Delta::ContactRate(0.1),
            Delta::CacheBudget(3),
        ] {
            solver.apply(&[delta]).unwrap();
            let demand = DemandRates::new(solver.rates().to_vec());
            let fresh = greedy_homogeneous(solver.system(), &demand, utility.as_ref());
            assert_eq!(*solver.counts(), fresh, "after {delta:?}");
        }
    }

    #[test]
    fn zero_demand_everywhere_empties_the_allocation() {
        let system = SystemModel::pure_p2p(10, 2, 0.05);
        let demand = DemandRates::new(vec![1.0, 0.5, 0.2]);
        let mut solver = DeltaSolver::new(system, &demand, Arc::new(Step::new(5.0)));
        assert!(solver.counts().total() > 0);
        let deltas: Vec<Delta> = (0..3)
            .map(|i| Delta::Demand { item: i, rate: 0.0 })
            .collect();
        solver.apply(&deltas).unwrap();
        assert_eq!(solver.counts().total(), 0);
        // Revive one item: it should absorb the whole reachable budget.
        solver
            .apply(&[Delta::Demand { item: 1, rate: 2.0 }])
            .unwrap();
        assert_eq!(*solver.counts(), scratch(&solver));
    }

    #[test]
    fn certificate_accepts_tiny_deltas_and_rejects_reversals() {
        let system = SystemModel::pure_p2p(40, 4, 0.05);
        let demand = Popularity::pareto(16, 1.0).demand_rates(1.0);
        let utility: Arc<dyn DelayUtility> = Arc::new(Exponential::new(0.5));
        let mut solver =
            DeltaSolver::new(system, &demand, Arc::clone(&utility)).with_staleness(0.05);

        // A 0.1 % nudge on one mid-rank item: certifiably negligible.
        let nudge = demand.rate(8) * 1.001;
        let out = solver
            .apply(&[Delta::Demand {
                item: 8,
                rate: nudge,
            }])
            .unwrap();
        let DeltaOutcome::CertifiedStale(cert) = out else {
            panic!("expected a certified-stale outcome, got {out:?}");
        };
        assert!(cert.accepted && cert.gap <= cert.eps * cert.scale);

        // Soundness spot-check: the certified gap dominates the true one.
        let fresh = greedy_homogeneous(
            solver.system(),
            &DemandRates::new(solver.rates().to_vec()),
            utility.as_ref(),
        );
        let w_fresh = social_welfare_homogeneous(
            solver.system(),
            &DemandRates::new(solver.rates().to_vec()),
            utility.as_ref(),
            &fresh.as_f64(),
        );
        assert!(w_fresh - cert.stale_welfare <= cert.gap + 1e-12 * cert.scale);

        // A full popularity reversal cannot be certified at ε = 5 %.
        let reversed: Vec<Delta> = (0..16)
            .map(|i| Delta::Demand {
                item: i,
                rate: demand.rate(15 - i),
            })
            .collect();
        let out = solver.apply(&reversed).unwrap();
        assert!(matches!(out, DeltaOutcome::Resolved { .. }));
        // The fallback is exact: bit-identical to scratch.
        let fresh = greedy_homogeneous(
            solver.system(),
            &DemandRates::new(solver.rates().to_vec()),
            utility.as_ref(),
        );
        assert_eq!(*solver.counts(), fresh);
        let stats = solver.stats();
        assert_eq!(stats.certificates, 2);
        assert_eq!(stats.certified_reuses, 1);
        assert_eq!(stats.certificate_fallbacks, 1);
    }

    #[test]
    fn dirty_items_are_refreshed_after_certified_staleness() {
        // An item whose demand changed under an accepted certificate must
        // still be re-keyed correctly by the next exact pass.
        let system = SystemModel::pure_p2p(40, 4, 0.05);
        let demand = Popularity::pareto(16, 1.0).demand_rates(1.0);
        let utility: Arc<dyn DelayUtility> = Arc::new(Step::new(5.0));
        let mut solver =
            DeltaSolver::new(system, &demand, Arc::clone(&utility)).with_staleness(0.2);
        let nudged = demand.rate(5) * 1.0005;
        let out = solver
            .apply(&[Delta::Demand {
                item: 5,
                rate: nudged,
            }])
            .unwrap();
        assert!(matches!(out, DeltaOutcome::CertifiedStale(_)));
        // Budget deltas bypass the certificate: exact path, which must
        // absorb the earlier certified (dirty) demand change too.
        solver.apply(&[Delta::CacheBudget(5)]).unwrap();
        let fresh = greedy_homogeneous(
            solver.system(),
            &DemandRates::new(solver.rates().to_vec()),
            utility.as_ref(),
        );
        assert_eq!(*solver.counts(), fresh);
    }

    #[test]
    fn gain_memo_survives_demand_deltas() {
        let system = SystemModel::pure_p2p(30, 3, 0.05);
        let demand = Popularity::pareto(40, 1.0).demand_rates(1.0);
        let mut solver = DeltaSolver::new(system, &demand, Arc::new(Exponential::new(0.5)));
        let evals_after_init = solver.gains.evaluations();
        assert!(evals_after_init <= system.servers() as u64 + 1);
        for round in 0..20 {
            let rate = 0.5 + 0.01 * round as f64;
            solver
                .apply(&[Delta::Demand { item: round, rate }])
                .unwrap();
        }
        // Deltas may *lazily* touch replica levels the initial solve
        // never reached, but each level costs one quadrature ever.
        assert!(solver.gains.evaluations() <= system.servers() as u64 + 1);
        let evals = solver.gains.evaluations();
        for round in 0..20 {
            let rate = 0.6 + 0.01 * round as f64;
            solver
                .apply(&[Delta::Demand { item: round, rate }])
                .unwrap();
        }
        assert_eq!(
            solver.gains.evaluations(),
            evals,
            "repeat deltas over known levels must not re-run quadrature"
        );
    }

    #[test]
    fn cost_type_utility_keeps_every_item_covered_through_deltas() {
        // Power(α ≥ 1) has h(0⁺) = ∞: first replicas are infinitely
        // valuable, exercising the HeapKey infinity tie-break path.
        let system = SystemModel::dedicated(30, 5, 2, 0.05);
        let demand = Popularity::pareto(8, 1.0).demand_rates(1.0);
        let utility: Arc<dyn DelayUtility> = Arc::new(Power::new(1.5));
        let mut solver = DeltaSolver::new(system, &demand, Arc::clone(&utility));
        for (item, rate) in [(7usize, 9.0), (0, 0.001), (4, 0.0), (4, 0.3)] {
            solver.apply(&[Delta::Demand { item, rate }]).unwrap();
            let demand = DemandRates::new(solver.rates().to_vec());
            let fresh = greedy_homogeneous(solver.system(), &demand, utility.as_ref());
            assert_eq!(*solver.counts(), fresh, "after d[{item}] = {rate}");
        }
    }

    #[test]
    fn rejects_dedicated_only_utility_in_pure_p2p() {
        let system = SystemModel::pure_p2p(10, 2, 0.05);
        let demand = Popularity::uniform(4).demand_rates(1.0);
        let err = DeltaSolver::try_new(system, &demand, Arc::new(Power::new(1.5)));
        assert!(matches!(err, Err(SolverError::RequiresDedicated { .. })));
    }

    #[test]
    #[should_panic(expected = "finite and ≥ 0")]
    fn rejects_negative_demand_delta() {
        let system = SystemModel::pure_p2p(10, 2, 0.05);
        let demand = Popularity::uniform(4).demand_rates(1.0);
        let mut solver = DeltaSolver::new(system, &demand, Arc::new(Step::new(5.0)));
        let _ = solver.apply(&[Delta::Demand {
            item: 0,
            rate: -1.0,
        }]);
    }
}
