//! Query Counting Replication with mandate routing (paper §5).
//!
//! On each fulfilled request the final query-counter value `y` is fed to
//! the reaction function `ψ(y) ∝ (|S|/y)·φ(|S|/y)` (Property 2), and that
//! many replication *mandates* for the item are minted at the fulfilled
//! node. A mandate executes when its holder meets a node lacking the item
//! *while the holder still has a copy* — in an opportunistic network that
//! coincidence is rare for unpopular items, so unrouted mandate pools
//! diverge and the allocation drifts (Fig. 3). Mandate routing (§5.3)
//! repairs this: at every meeting, mandates migrate toward nodes holding
//! the replicas they need, with the item's sticky seed node preferred
//! (it can never lose its copy).

use std::collections::BTreeMap;
use std::ops::Bound::{Excluded, Unbounded};
use std::sync::Arc;

use impatience_core::rng::Xoshiro256;
use impatience_core::utility::DelayUtility;

use crate::config::SimConfig;
use crate::metrics::Metrics;
use crate::policy::{Fulfillment, ReplicationPolicy};
use crate::state::SimState;

/// How many replicas to mint per fulfillment.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Reaction {
    /// The impatience-matched reaction `ψ(y)` of Property 2 (default).
    Psi,
    /// A constant count — "passive replication", which drives the cache
    /// toward the proportional allocation regardless of impatience.
    Constant(f64),
}

/// Tunable knobs of the QCR implementation (§6.1 defaults).
#[derive(Clone, Debug)]
pub struct QcrConfig {
    /// Move mandates toward replica holders at each meeting (§5.3).
    /// Turning this off reproduces the divergence pathology of Fig. 3.
    pub mandate_routing: bool,
    /// "Replication with rewriting": meeting a node that already holds
    /// the item consumes a mandate even though no copy is made. The
    /// paper's experiments run with rewriting *off*.
    pub rewriting: bool,
    /// Auto-normalize the reaction so that a fulfillment at the *uniform-
    /// allocation* query count `y* = |I|/ρ` mints about one replica.
    /// Property 2 leaves ψ's constant free; without normalization, steep
    /// reactions (e.g. ψ(y) = y² for α = −1) mint hundreds of replicas
    /// per fulfillment and the resulting cache churn destroys the very
    /// allocation QCR is building.
    pub normalize_reaction: bool,
    /// Per-fulfillment cap on minted mandates — bounds transient spikes
    /// of ψ for very rare items; hits are counted in the metrics.
    pub mandate_cap: u64,
    /// Reaction function choice.
    pub reaction: Reaction,
}

impl Default for QcrConfig {
    fn default() -> Self {
        QcrConfig {
            mandate_routing: true,
            rewriting: false,
            normalize_reaction: true,
            mandate_cap: 20,
            reaction: Reaction::Psi,
        }
    }
}

/// A node's outstanding mandates: item → count (≤ the mandate cap).
pub type Pool = BTreeMap<u32, u64>;

/// The first key of `pool` past `cursor` (`None`: from the start) — a
/// walk in ascending key order that survives edits at the keys behind it.
pub fn next_key(pool: &Pool, cursor: Option<u32>) -> Option<u32> {
    let from = cursor.map_or(Unbounded, Excluded);
    pool.range((from, Unbounded)).next().map(|(&item, _)| item)
}

/// Locally indexed mandate pools with a one-bit-per-node occupancy
/// index beside them, so a meeting of two nodes holding no mandates is
/// told so without loading either pool. A bit follows its pool at
/// [`MandateHost::sync`], which [`QcrRules::after_meeting`] calls for
/// the only two pools a meeting can change.
#[derive(Clone, Debug)]
pub(crate) struct Mandates {
    pub(crate) pools: Vec<Pool>,
    occupied: Vec<u64>,
}

impl Mandates {
    /// `pools`, indexed.
    pub(crate) fn new(pools: Vec<Pool>) -> Self {
        let mut mandates = Mandates {
            occupied: vec![0; pools.len().div_ceil(64)],
            pools,
        };
        for node in 0..mandates.pools.len() {
            mandates.sync(node);
        }
        mandates
    }

    pub(crate) fn has(&self, node: usize) -> bool {
        self.occupied[node / 64] >> (node % 64) & 1 == 1
    }

    /// Set `node`'s bit from its pool.
    pub(crate) fn sync(&mut self, node: usize) {
        let bit = 1u64 << (node % 64);
        if self.pools[node].is_empty() {
            self.occupied[node / 64] &= !bit;
        } else {
            self.occupied[node / 64] |= bit;
        }
    }
}

/// What the protocol needs from the runtime it runs in: who holds which
/// item, each node's mandate pool and whether it holds anything, how a
/// copy gets made, and where an item's sticky seed sits. The serial
/// engine answers from one [`SimState`], the sharded engine from the one
/// or two shard blocks a meeting touches — the only QCR code that
/// differs between them.
pub trait MandateHost {
    /// Does `node`'s cache hold `item`?
    fn holds(&self, node: usize, item: u32) -> bool;
    /// `node`'s mandate pool.
    fn pool(&self, node: usize) -> &Pool;
    /// `node`'s mandate pool, mutably; [`MandateHost::sync`] brings its
    /// occupancy bit up to date after.
    fn pool_mut(&mut self, node: usize) -> &mut Pool;
    /// Does `node`'s pool hold anything (as of its last sync)?
    fn has_mandates(&self, node: usize) -> bool;
    /// Set `node`'s occupancy bit from its pool.
    fn sync(&mut self, node: usize);
    /// Copy `item` into `node`'s cache (evicting by the cache's rule);
    /// `true` if a new replica now exists.
    fn replicate(&mut self, node: usize, item: u32, rng: &mut Xoshiro256) -> bool;
    /// The node holding `item`'s sticky seed (`usize::MAX` = none).
    fn sticky_owner(&self, item: u32) -> usize;
}

/// The protocol itself: what is fixed for a trial, and the decisions
/// every runtime takes by it — in-process engines through a
/// [`MandateHost`], the message-passing runtime (`impatience-net`)
/// through [`QcrRules::mint`], [`share`] and [`pool_add`] around its own
/// two-phase transfers. A welfare difference between two runtimes can
/// then only come from their transport, never from a drifted constant.
pub struct QcrRules {
    cfg: QcrConfig,
    utility: Arc<dyn DelayUtility>,
    servers: f64,
    /// Reference contact rate used to evaluate ψ (the designer's estimate
    /// of μ; the proportionality constant of ψ is free, but its shape in
    /// `y` depends on μ for some families).
    mu_ref: f64,
    /// Combined multiplier on the reaction function: ψ-normalization ×
    /// steepness damping.
    scale: f64,
}

impl QcrRules {
    /// Rules for a population of which `servers` nodes carry caches of
    /// capacity `rho`, over a catalog of `items` items; `utility` is the
    /// impatience model the protocol believes in. A non-positive `mu_ref`
    /// (an empty trace) is read as 1.
    pub fn new(
        cfg: QcrConfig,
        utility: Arc<dyn DelayUtility>,
        servers: usize,
        mu_ref: f64,
        items: usize,
        rho: usize,
    ) -> Self {
        assert!(servers > 0, "need at least one server");
        let servers = servers as f64;
        let mu_ref = if mu_ref > 0.0 { mu_ref } else { 1.0 };
        let mut scale = 1.0;
        if cfg.normalize_reaction && cfg.reaction == Reaction::Psi {
            // Expected query count under the uniform allocation:
            // y* = |S|/x̄ with x̄ = ρ|S|/|I|.
            let y_ref = (items as f64 / rho.max(1) as f64).max(1.0);
            let psi_ref = utility.psi(y_ref, servers, mu_ref);
            if psi_ref.is_finite() && psi_ref > 0.0 {
                scale /= psi_ref;
                // Steepness damping: when ψ grows steeply in y (ratio
                // r = ψ(2y*)/ψ(y*) > 1, e.g. ψ(y) = y³ for α = −2), a
                // half-replicated item mints r× the normal batch, the
                // resulting overshoot knocks other items down, and the
                // allocation oscillates instead of settling. Damping
                // by r³ (calibrated across the power and step
                // families; see the ablation bench) trades
                // convergence speed for stability; the equilibrium
                // itself is scale-free (Property 2).
                let psi_2ref = utility.psi(2.0 * y_ref, servers, mu_ref);
                let r = psi_2ref / psi_ref;
                if r.is_finite() && r > 1.0 {
                    scale /= r * r * r;
                }
            }
        }
        QcrRules {
            cfg,
            utility,
            servers,
            mu_ref,
            scale,
        }
    }

    /// The rules a trial of `config` on `nodes` nodes runs, at reference
    /// contact rate `mu_ref`: its servers, catalog, cache size and
    /// protocol utility.
    pub fn for_trial(cfg: QcrConfig, config: &SimConfig, nodes: usize, mu_ref: f64) -> Self {
        let servers = config.dedicated_servers.unwrap_or(nodes);
        QcrRules::new(
            cfg,
            config.protocol(),
            servers,
            mu_ref,
            config.items,
            config.rho,
        )
    }

    /// The most mandates one pool holds for one item.
    pub fn mandate_cap(&self) -> u64 {
        self.cfg.mandate_cap
    }

    /// Mint mandates for `item` into `pool` for a fulfillment after `y`
    /// queries; returns how many entered the pool.
    pub fn mint(
        &self,
        pool: &mut Pool,
        item: u32,
        y: u64,
        metrics: &mut Metrics,
        rng: &mut Xoshiro256,
    ) -> u64 {
        if y == 0 {
            // Immediate self-cache hit: the item is plentiful where it is
            // demanded; ψ(0⁺) → 0 for every built-in family.
            return 0;
        }
        let raw = match self.cfg.reaction {
            Reaction::Psi => self.utility.psi(y as f64, self.servers, self.mu_ref) * self.scale,
            Reaction::Constant(k) => k,
        };
        if raw.is_nan() || raw <= 0.0 {
            return 0; // nothing to mint
        }
        // Stochastic rounding preserves the expected replica count.
        let mut count = raw.floor() as u64;
        if rng.bernoulli(raw - count as f64) {
            count += 1;
        }
        if count > self.cfg.mandate_cap {
            metrics.mandate_cap_hits += 1;
            count = self.cfg.mandate_cap;
        }
        if count == 0 {
            return 0;
        }
        // The per-item pool at a node is bounded by the same cap:
        // outstanding mandates beyond it are discarded, which bounds
        // the overshoot a burst of fulfillments can cause.
        let added = count - pool_add(pool, item, count, self.cfg.mandate_cap);
        metrics.mandates_created += added;
        added
    }

    /// Execute eligible mandates held by `carrier` against `peer`:
    /// one copy of each mandated item may be produced per meeting, and
    /// only when the carrier itself possesses a replica to transmit —
    /// §5.3's possession requirement ("it could be that, when a replica
    /// of the item needs to be produced, this item is no longer in the
    /// possession of the node desiring to replicate it"). Mandates whose
    /// carrier lacks the item *stall*; mandate routing exists precisely
    /// to move them to nodes that can execute them.
    pub fn execute<H: MandateHost>(
        &self,
        host: &mut H,
        carrier: usize,
        peer: usize,
        rng: &mut Xoshiro256,
    ) {
        // Only `item`'s entry changes inside the loop, so the cursor
        // visits the keys the pool held on entry.
        let mut cursor = None;
        while let Some(item) = next_key(host.pool(carrier), cursor) {
            cursor = Some(item);
            if !host.holds(carrier, item) {
                continue; // stalled: replica lost to random replacement
            }
            // A peer that already holds the item is ignored — or, under
            // rewriting, burns the mandate without a copy being made.
            let spent = if host.holds(peer, item) {
                self.cfg.rewriting
            } else {
                host.replicate(peer, item, rng)
            };
            if spent {
                let pool = host.pool_mut(carrier);
                let left = pool.get(&item).map_or(0, |c| c.saturating_sub(1));
                set_mandates(pool, item, left);
            }
        }
    }

    /// Route mandates between the two meeting nodes (§5.3 / §6.1) by
    /// [`share`], the engines' odd leftover going by coin flip.
    pub fn route<H: MandateHost>(&self, host: &mut H, a: usize, b: usize, rng: &mut Xoshiro256) {
        // The union of both pools' keys, ascending: the smaller of the
        // two next keys past the cursor.
        let mut cursor = None;
        while let Some(item) = [a, b]
            .into_iter()
            .filter_map(|node| next_key(host.pool(node), cursor))
            .min()
        {
            cursor = Some(item);
            let of = |node| host.pool(node).get(&item).copied().unwrap_or(0);
            let total = (of(a) + of(b)).min(self.cfg.mandate_cap);
            if total == 0 {
                continue;
            }
            let sticky = host.sticky_owner(item);
            let to_a = share(
                total,
                host.holds(a, item),
                host.holds(b, item),
                sticky == a,
                sticky == b,
                || rng.bernoulli(0.5),
            );
            set_mandates(host.pool_mut(a), item, to_a);
            set_mandates(host.pool_mut(b), item, total - to_a);
        }
    }

    /// The policy step of one meeting between `a` and `b`: mint for its
    /// fulfillments, execute in both directions, route what remains
    /// toward replica holders. With nothing fulfilled and both pools
    /// empty that step draws nothing and changes nothing, so it is not
    /// taken. Mint writes the fulfilled node's pool, execute and route
    /// only `a`'s and `b`'s: those two are the only bits to sync.
    pub fn after_meeting<H: MandateHost>(
        &self,
        host: &mut H,
        a: usize,
        b: usize,
        fulfilled: &[Fulfillment],
        metrics: &mut Metrics,
        rng: &mut Xoshiro256,
    ) {
        if fulfilled.is_empty() && !host.has_mandates(a) && !host.has_mandates(b) {
            return;
        }
        for f in fulfilled {
            debug_assert!(f.node == a || f.node == b, "a fulfillment off the meeting");
            self.mint(host.pool_mut(f.node), f.item, f.queries, metrics, rng);
        }
        self.execute(host, a, b, rng);
        self.execute(host, b, a, rng);
        if self.cfg.mandate_routing {
            self.route(host, a, b, rng);
        }
        host.sync(a);
        host.sync(b);
    }
}

/// The §5.3 split of `total` pooled mandates between two meeting nodes:
/// how many go to `a`. They go to the copy holder; when both (or
/// neither) hold the item they are shared, the sticky seed (it can never
/// lose its copy) taking 2/3, otherwise evenly — `odd_to_a` is asked,
/// only when `total` is odd, who gets the leftover.
pub fn share(
    total: u64,
    a_holds: bool,
    b_holds: bool,
    a_sticky: bool,
    b_sticky: bool,
    odd_to_a: impl FnOnce() -> bool,
) -> u64 {
    match (a_holds, b_holds) {
        (true, false) => total,
        (false, true) => 0,
        _ if a_holds && a_sticky => (total * 2).div_ceil(3),
        _ if b_holds && b_sticky => total - (total * 2).div_ceil(3),
        _ => total / 2 + u64::from(total % 2 == 1 && odd_to_a()),
    }
}

/// Add `count` mandates for `item` to `pool`, clamped at `cap`; returns
/// the overflow the clamp destroyed.
pub fn pool_add(pool: &mut Pool, item: u32, count: u64, cap: u64) -> u64 {
    let slot = pool.entry(item).or_insert(0);
    let before = *slot;
    *slot = (before + count).min(cap);
    count - (*slot - before)
}

fn set_mandates(pool: &mut Pool, item: u32, count: u64) {
    if count == 0 {
        pool.remove(&item);
    } else {
        pool.insert(item, count);
    }
}

/// The serial engine's QCR: the rules plus one pool per node, hosted on
/// the trial's [`SimState`].
pub struct Qcr {
    rules: QcrRules,
    mandates: Mandates,
}

impl Qcr {
    /// QCR by `rules` for a population of `nodes` nodes.
    pub fn new(rules: QcrRules, nodes: usize) -> Self {
        Qcr {
            rules,
            mandates: Mandates::new(vec![Pool::new(); nodes]),
        }
    }
}

/// The serial host: every node's cache in one [`SimState`], every pool
/// in one [`Mandates`].
pub(crate) struct SerialHost<'a> {
    pub(crate) state: &'a mut SimState,
    pub(crate) mandates: &'a mut Mandates,
}

impl MandateHost for SerialHost<'_> {
    fn holds(&self, node: usize, item: u32) -> bool {
        self.state.caches.holds(node, item)
    }
    fn pool(&self, node: usize) -> &Pool {
        &self.mandates.pools[node]
    }
    fn pool_mut(&mut self, node: usize) -> &mut Pool {
        &mut self.mandates.pools[node]
    }
    fn has_mandates(&self, node: usize) -> bool {
        self.mandates.has(node)
    }
    fn sync(&mut self, node: usize) {
        self.mandates.sync(node);
    }
    fn replicate(&mut self, node: usize, item: u32, rng: &mut Xoshiro256) -> bool {
        self.state.replicate(item, node, rng)
    }
    fn sticky_owner(&self, item: u32) -> usize {
        self.state.sticky_owner[item as usize]
    }
}

impl ReplicationPolicy for Qcr {
    #[allow(clippy::too_many_arguments)]
    fn after_contact(
        &mut self,
        _t: f64,
        a: usize,
        b: usize,
        state: &mut SimState,
        fulfilled: &[Fulfillment],
        metrics: &mut Metrics,
        rng: &mut Xoshiro256,
    ) {
        let mut host = SerialHost {
            state,
            mandates: &mut self.mandates,
        };
        self.rules
            .after_meeting(&mut host, a, b, fulfilled, metrics, rng);
    }

    /// A node without mandates: [`QcrRules::after_meeting`] returns at
    /// once on a meeting of two such nodes that fulfils nothing.
    fn idle(&self, node: usize) -> bool {
        !self.mandates.has(node)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use impatience_core::utility::Step;

    fn mini_state() -> (SimState, Xoshiro256) {
        let mut rng = Xoshiro256::seed_from_u64(1);
        let mut state = SimState::new(4, 4, 2);
        state.seed_sticky_and_fill(&mut rng);
        (state, rng)
    }

    fn rules(cfg: QcrConfig) -> QcrRules {
        QcrRules::new(cfg, Arc::new(Step::new(10.0)), 4, 0.05, 4, 2)
    }

    fn outstanding(pools: &[Pool]) -> u64 {
        pools.iter().flat_map(|m| m.values()).sum()
    }

    #[test]
    fn minting_respects_zero_queries_and_cap() {
        let (_, mut rng) = mini_state();
        let mut metrics = Metrics::new(100.0, 10.0);
        let p = rules(QcrConfig {
            mandate_cap: 3,
            reaction: Reaction::Constant(10.0),
            ..QcrConfig::default()
        });
        let mut pool = Pool::new();
        assert_eq!(p.mint(&mut pool, 1, 0, &mut metrics, &mut rng), 0);
        assert!(pool.is_empty(), "y=0 must mint nothing");
        assert_eq!(p.mint(&mut pool, 1, 5, &mut metrics, &mut rng), 3);
        assert_eq!(pool.get(&1), Some(&3), "cap must clamp");
        assert_eq!(metrics.mandate_cap_hits, 1);
        assert_eq!(metrics.mandates_created, 3);
        // A full pool takes nothing more, and says so.
        assert_eq!(p.mint(&mut pool, 1, 5, &mut metrics, &mut rng), 0);
        assert_eq!(metrics.mandates_created, 3);
    }

    #[test]
    fn stochastic_rounding_is_unbiased() {
        let (_, mut rng) = mini_state();
        let mut metrics = Metrics::new(100.0, 10.0);
        let p = rules(QcrConfig {
            reaction: Reaction::Constant(0.3),
            // Effectively uncapped so the pool can accumulate the mean.
            mandate_cap: u64::MAX,
            ..QcrConfig::default()
        });
        let mut pool = Pool::new();
        let n = 20_000;
        for _ in 0..n {
            p.mint(&mut pool, 1, 1, &mut metrics, &mut rng);
        }
        let mean = pool[&1] as f64 / n as f64;
        assert!((mean - 0.3).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn execution_copies_only_from_holders_to_nonholders() {
        let mut rng = Xoshiro256::seed_from_u64(3);
        let mut state = SimState::new(2, 4, 2);
        state.caches.node_mut(0).fill(1);
        state.replicas[1] = 1;
        let p = rules(QcrConfig::default());
        let mut mandates = Mandates::new(vec![Pool::from([(1, 2)]), Pool::new()]);
        // Node 0 holds item 1, node 1 doesn't: one copy per meeting.
        let mut host = SerialHost {
            state: &mut state,
            mandates: &mut mandates,
        };
        p.execute(&mut host, 0, 1, &mut rng);
        assert_eq!(host.state.replicas[1], 2);
        assert_eq!(outstanding(&host.mandates.pools), 1);
        // Second execution against the same (now holding) peer: ignored.
        p.execute(&mut host, 0, 1, &mut rng);
        assert_eq!(host.state.replicas[1], 2);
        assert_eq!(
            outstanding(&host.mandates.pools),
            1,
            "no rewriting: mandate kept"
        );
    }

    #[test]
    fn rewriting_consumes_mandates_without_copying() {
        let mut rng = Xoshiro256::seed_from_u64(4);
        let mut state = SimState::new(2, 4, 2);
        state.caches.node_mut(0).fill(1);
        state.caches.node_mut(1).fill(1);
        state.replicas[1] = 2;
        let p = rules(QcrConfig {
            rewriting: true,
            ..QcrConfig::default()
        });
        let mut mandates = Mandates::new(vec![Pool::from([(1, 2)]), Pool::new()]);
        let mut host = SerialHost {
            state: &mut state,
            mandates: &mut mandates,
        };
        p.execute(&mut host, 0, 1, &mut rng);
        assert_eq!(state.replicas[1], 2, "no new copy");
        assert_eq!(outstanding(&mandates.pools), 1, "one mandate burned");
    }

    #[test]
    fn execution_requires_carrier_possession() {
        // The mandate carrier lost its copy; even though the met node has
        // one, the mandate stalls (it is routing's job to migrate it).
        let mut rng = Xoshiro256::seed_from_u64(31);
        let mut state = SimState::new(2, 4, 2);
        state.caches.node_mut(1).fill(1);
        state.replicas[1] = 1;
        let p = rules(QcrConfig::default());
        let mut mandates = Mandates::new(vec![Pool::from([(1, 2)]), Pool::new()]);
        let mut host = SerialHost {
            state: &mut state,
            mandates: &mut mandates,
        };
        p.execute(&mut host, 0, 1, &mut rng);
        assert!(!state.caches.node(0).holds(1));
        assert_eq!(state.replicas[1], 1, "no copy may be made");
        assert_eq!(
            outstanding(&mandates.pools),
            2,
            "mandates stall, not vanish"
        );
    }

    #[test]
    fn mandates_lost_replica_cannot_execute() {
        let mut rng = Xoshiro256::seed_from_u64(5);
        let mut state = SimState::new(2, 4, 2);
        // Node 0 has mandates for item 1 but no copy.
        let p = rules(QcrConfig::default());
        let mut mandates = Mandates::new(vec![Pool::from([(1, 3)]), Pool::new()]);
        let mut host = SerialHost {
            state: &mut state,
            mandates: &mut mandates,
        };
        p.execute(&mut host, 0, 1, &mut rng);
        assert_eq!(outstanding(&mandates.pools), 3);
        assert_eq!(state.replicas[1], 0);
    }

    #[test]
    fn routing_moves_mandates_to_holder() {
        let mut rng = Xoshiro256::seed_from_u64(6);
        let mut state = SimState::new(2, 4, 2);
        state.caches.node_mut(1).fill(2);
        state.replicas[2] = 1;
        let p = rules(QcrConfig::default());
        let mut mandates = Mandates::new(vec![Pool::from([(2, 5)]), Pool::new()]);
        let mut host = SerialHost {
            state: &mut state,
            mandates: &mut mandates,
        };
        p.route(&mut host, 0, 1, &mut rng);
        assert_eq!(mandates.pools[0].get(&2), None);
        assert_eq!(mandates.pools[1].get(&2), Some(&5));
    }

    #[test]
    fn routing_splits_between_two_holders() {
        let mut rng = Xoshiro256::seed_from_u64(7);
        let mut state = SimState::new(2, 4, 2);
        state.caches.node_mut(0).fill(2);
        state.caches.node_mut(1).fill(2);
        state.replicas[2] = 2;
        let p = rules(QcrConfig::default());
        let mut mandates = Mandates::new(vec![Pool::from([(2, 6)]), Pool::new()]);
        let mut host = SerialHost {
            state: &mut state,
            mandates: &mut mandates,
        };
        p.route(&mut host, 0, 1, &mut rng);
        assert_eq!(mandates.pools[0].get(&2), Some(&3));
        assert_eq!(mandates.pools[1].get(&2), Some(&3));
    }

    #[test]
    fn routing_prefers_sticky_seed() {
        let mut rng = Xoshiro256::seed_from_u64(8);
        let mut state = SimState::new(2, 4, 2);
        state.caches.node_mut(0).pin_sticky(2);
        state.caches.node_mut(1).fill(2);
        state.replicas[2] = 2;
        state.sticky_owner[2] = 0;
        let p = rules(QcrConfig::default());
        let mut mandates = Mandates::new(vec![Pool::new(), Pool::from([(2, 6)])]);
        let mut host = SerialHost {
            state: &mut state,
            mandates: &mut mandates,
        };
        p.route(&mut host, 0, 1, &mut rng);
        assert_eq!(mandates.pools[0].get(&2), Some(&4), "sticky seed gets 2/3");
        assert_eq!(mandates.pools[1].get(&2), Some(&2));
    }

    #[test]
    fn share_follows_the_copy_then_the_sticky_seed_then_halves() {
        // (total, ⌈2·total/3⌉), odd and even.
        for (total, two_thirds) in [(7u64, 5u64), (6, 4)] {
            let (half, odd) = (total / 2, total % 2 == 1);
            // (a_holds, b_holds, a_sticky, b_sticky) → (to_a, leftover asked)
            let table = [
                // A sole holder takes everything, whoever is sticky.
                ((true, false, false, false), total, false),
                ((true, false, false, true), total, false),
                ((false, true, false, false), 0, false),
                ((false, true, true, false), 0, false),
                // Both hold: the sticky seed takes 2/3, else halves.
                ((true, true, true, false), two_thirds, false),
                ((true, true, false, true), total - two_thirds, false),
                ((true, true, false, false), half, odd),
                // Neither holds: a sticky flag without the copy is moot.
                ((false, false, false, false), half, odd),
                ((false, false, true, false), half, odd),
                ((false, false, false, true), half, odd),
            ];
            for ((ha, hb, sa, sb), to_a, asks) in table {
                for leftover_to_a in [false, true] {
                    let mut asked = false;
                    let got = share(total, ha, hb, sa, sb, || {
                        asked = true;
                        leftover_to_a
                    });
                    let case = format!("{total} over {:?}", (ha, hb, sa, sb));
                    assert_eq!(asked, asks, "{case}: leftover asked");
                    assert_eq!(got, to_a + u64::from(asks && leftover_to_a), "{case}");
                }
            }
        }
    }

    #[test]
    fn no_routing_leaves_mandates_at_origin() {
        let mut rng = Xoshiro256::seed_from_u64(9);
        let (mut state, _) = mini_state();
        let mut metrics = Metrics::new(100.0, 10.0);
        let mut p = Qcr::new(
            rules(QcrConfig {
                mandate_routing: false,
                reaction: Reaction::Constant(4.0),
                ..QcrConfig::default()
            }),
            4,
        );
        // A fulfillment at node 0 mints 4 mandates; without routing they
        // stay at node 0 no matter how many contacts occur.
        let f = Fulfillment {
            node: 0,
            item: 3,
            queries: 2,
            wait: 1.0,
        };
        p.after_contact(1.0, 0, 1, &mut state, &[f], &mut metrics, &mut rng);
        assert!(outstanding(&p.mandates.pools[..1]) > 0);
        assert_eq!(outstanding(&p.mandates.pools[1..]), 0);
    }

    #[test]
    fn constant_reaction_acts_as_passive() {
        let (_, mut rng) = mini_state();
        let mut metrics = Metrics::new(100.0, 10.0);
        let p = rules(QcrConfig {
            reaction: Reaction::Constant(1.0),
            ..QcrConfig::default()
        });
        let mut pool = Pool::new();
        p.mint(&mut pool, 1, 50, &mut metrics, &mut rng);
        assert_eq!(pool.get(&1), Some(&1), "one replica per fulfillment");
    }
}
