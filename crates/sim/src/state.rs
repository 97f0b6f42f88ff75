//! Mutable simulation state: node caches and replica bookkeeping.
//!
//! Caches follow the paper's rules (§5.1, §6.1): fixed capacity `ρ`,
//! random replacement on insertion, and one *sticky* replica per item that
//! can never be erased — the initial seeder keeps its copy, preventing
//! absorbing states where an item vanishes from the system.
//!
//! # Storage layout
//!
//! Cache state lives in a struct-of-arrays [`CacheArena`]: one flat slot
//! array (stride ρ), one flat stamp array, and per-node `len`/`sticky`/
//! `clock` vectors, all indexed by node id. Compared to the earlier
//! one-heap-object-per-node layout (a `Vec` of per-node caches, each with
//! its own slot vector and membership bitset) this removes ~5 allocations
//! per node and the per-node `|I|`-bit membership set — at n = 10⁶ nodes
//! the old layout cost gigabytes and a pointer chase per lookup, the
//! arena costs `n·ρ` words and an ≤ ρ-element scan. Cache-carrying nodes
//! occupy the id prefix `0..cache_nodes` (in a dedicated population the
//! servers come first; in pure P2P every node carries a cache), so
//! capacity is a branch, not a lookup, and a contiguous node-id range maps
//! to a contiguous arena range — which is what lets the sharded engine
//! split one arena into per-shard blocks without copying.
//!
//! Per-node views ([`CacheRef`]/[`CacheMut`]) expose the same operations
//! the per-node objects had, with identical RNG consumption and victim
//! selection, so trajectories are bit-identical to the previous layout.

use impatience_core::allocation::AllocationMatrix;
use impatience_core::rng::Xoshiro256;

/// Which occupant a full cache evicts on insertion.
///
/// The paper's model and analysis (Eq. 7) assume **random** replacement;
/// the alternatives are provided for ablation — recency-based policies
/// couple the cache contents to the request process and bias the
/// allocation away from the ψ-driven equilibrium.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum EvictionPolicy {
    /// Uniformly random non-sticky occupant (the paper's rule).
    #[default]
    Random,
    /// Least recently *used* (an insertion or a served request counts as
    /// a use).
    Lru,
    /// Oldest insertion (first in, first out).
    Fifo,
}

/// `sticky` sentinel: no pinned slot.
const NO_STICKY: u32 = u32::MAX;

/// Struct-of-arrays cache state for a whole population.
///
/// Nodes `0..cache_nodes` carry `rho`-slot caches; the rest (clients in a
/// dedicated population) have zero capacity and no arena storage.
#[derive(Clone, Debug)]
pub struct CacheArena {
    /// Total population size (servers + clients).
    nodes: usize,
    /// Nodes `0..cache_nodes` carry caches.
    cache_nodes: usize,
    /// Per-cache capacity ρ (the slot stride).
    rho: usize,
    /// Item held in each slot: node `n` owns `slots[n·ρ .. n·ρ + len[n]]`.
    slots: Vec<u32>,
    /// Per-slot timestamp (insertion for FIFO, last use for LRU).
    stamps: Vec<u64>,
    /// Occupied-slot count per cache-carrying node.
    len: Vec<u32>,
    /// Slot index of the sticky item per node ([`NO_STICKY`] = none).
    sticky: Vec<u32>,
    /// Logical clock driving the stamps, per node.
    clock: Vec<u64>,
    /// Eviction rule (arena-wide; the ablation hook applies globally).
    eviction: EvictionPolicy,
}

impl CacheArena {
    /// Empty caches: nodes `0..cache_nodes` get capacity `rho`, the rest
    /// capacity zero.
    pub fn new(nodes: usize, cache_nodes: usize, rho: usize) -> Self {
        assert!(cache_nodes <= nodes);
        CacheArena {
            nodes,
            cache_nodes,
            rho,
            slots: vec![0; cache_nodes * rho],
            stamps: vec![0; cache_nodes * rho],
            len: vec![0; cache_nodes],
            sticky: vec![NO_STICKY; cache_nodes],
            clock: vec![0; cache_nodes],
            eviction: EvictionPolicy::Random,
        }
    }

    /// Reset to the freshly-constructed state for the given shape,
    /// reusing existing allocations (the scratch-pool hook). The result
    /// is indistinguishable from [`CacheArena::new`].
    pub fn reset(&mut self, nodes: usize, cache_nodes: usize, rho: usize) {
        assert!(cache_nodes <= nodes);
        self.nodes = nodes;
        self.cache_nodes = cache_nodes;
        self.rho = rho;
        self.slots.clear();
        self.slots.resize(cache_nodes * rho, 0);
        self.stamps.clear();
        self.stamps.resize(cache_nodes * rho, 0);
        self.len.clear();
        self.len.resize(cache_nodes, 0);
        self.sticky.clear();
        self.sticky.resize(cache_nodes, NO_STICKY);
        self.clock.clear();
        self.clock.resize(cache_nodes, 0);
        self.eviction = EvictionPolicy::Random;
    }

    /// Total population size.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// Number of cache-carrying nodes (capacity > 0), i.e. servers.
    pub(crate) fn cache_nodes(&self) -> usize {
        if self.rho > 0 {
            self.cache_nodes
        } else {
            0
        }
    }

    /// Per-cache capacity of node `n` (ρ for servers, 0 for clients).
    #[inline]
    pub fn capacity_of(&self, n: usize) -> usize {
        if n < self.cache_nodes {
            self.rho
        } else {
            0
        }
    }

    /// Set the eviction rule (arena-wide ablation hook; call before
    /// seeding).
    pub fn set_eviction(&mut self, policy: EvictionPolicy) {
        self.eviction = policy;
    }

    /// Whether node `n` holds `item` — an ≤ ρ-element scan of its slots.
    #[inline]
    pub fn holds(&self, n: usize, item: u32) -> bool {
        if n >= self.cache_nodes {
            return false;
        }
        let base = n * self.rho;
        self.slots[base..base + self.len[n] as usize].contains(&item)
    }

    /// Shared view of node `n`'s cache.
    #[inline]
    pub fn node(&self, n: usize) -> CacheRef<'_> {
        assert!(n < self.nodes);
        CacheRef { arena: self, n }
    }

    /// Mutable view of node `n`'s cache.
    #[inline]
    pub fn node_mut(&mut self, n: usize) -> CacheMut<'_> {
        assert!(n < self.nodes);
        CacheMut { arena: self, n }
    }

    /// Iterate over all per-node views in node order.
    pub fn iter(&self) -> impl Iterator<Item = CacheRef<'_>> {
        (0..self.nodes).map(|n| CacheRef { arena: self, n })
    }

    /// Split a pure-P2P arena into contiguous node blocks (the sharded
    /// engine's per-shard states). `block_sizes` must sum to the node
    /// count; block `s` receives nodes `[Σ_{t<s} size_t, ...)` renumbered
    /// from zero. Requires every node to carry a cache (pure P2P).
    pub(crate) fn split_into_blocks(mut self, block_sizes: &[usize]) -> Vec<CacheArena> {
        assert_eq!(self.cache_nodes, self.nodes, "split requires pure P2P");
        assert_eq!(block_sizes.iter().sum::<usize>(), self.nodes);
        let mut out = Vec::with_capacity(block_sizes.len());
        // Walk blocks back-to-front so split_off peels the tail cheaply.
        let mut tail: Vec<CacheArena> = Vec::with_capacity(block_sizes.len());
        for &size in block_sizes.iter().rev() {
            let keep = self.nodes - size;
            tail.push(CacheArena {
                nodes: size,
                cache_nodes: size,
                rho: self.rho,
                slots: self.slots.split_off(keep * self.rho),
                stamps: self.stamps.split_off(keep * self.rho),
                len: self.len.split_off(keep),
                sticky: self.sticky.split_off(keep),
                clock: self.clock.split_off(keep),
                eviction: self.eviction,
            });
            self.nodes = keep;
            self.cache_nodes = keep;
        }
        out.extend(tail.into_iter().rev());
        out
    }
}

/// Shared view of one node's cache inside a [`CacheArena`].
#[derive(Clone, Copy)]
pub struct CacheRef<'a> {
    arena: &'a CacheArena,
    n: usize,
}

impl CacheRef<'_> {
    #[inline]
    fn base(&self) -> usize {
        self.n * self.arena.rho
    }

    /// Capacity ρ (0 for client nodes).
    #[inline]
    pub fn capacity(&self) -> usize {
        self.arena.capacity_of(self.n)
    }

    /// Number of occupied slots.
    #[inline]
    pub fn len(&self) -> usize {
        if self.n < self.arena.cache_nodes {
            self.arena.len[self.n] as usize
        } else {
            0
        }
    }

    /// Whether no slot is occupied.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether this node holds `item`.
    #[inline]
    pub fn holds(&self, item: u32) -> bool {
        self.arena.holds(self.n, item)
    }

    /// The item pinned as sticky here, if any.
    pub fn sticky_item(&self) -> Option<u32> {
        if self.n >= self.arena.cache_nodes {
            return None;
        }
        let s = self.arena.sticky[self.n];
        (s != NO_STICKY).then(|| self.arena.slots[self.base() + s as usize])
    }

    /// Items currently cached.
    pub fn items(&self) -> &'_ [u32] {
        if self.n >= self.arena.cache_nodes {
            return &[];
        }
        let base = self.base();
        &self.arena.slots[base..base + self.arena.len[self.n] as usize]
    }
}

/// Mutable view of one node's cache inside a [`CacheArena`].
pub struct CacheMut<'a> {
    arena: &'a mut CacheArena,
    n: usize,
}

impl CacheMut<'_> {
    #[inline]
    fn base(&self) -> usize {
        self.n * self.arena.rho
    }

    fn len(&self) -> usize {
        if self.n < self.arena.cache_nodes {
            self.arena.len[self.n] as usize
        } else {
            0
        }
    }

    fn capacity(&self) -> usize {
        self.arena.capacity_of(self.n)
    }

    fn sticky(&self) -> Option<usize> {
        if self.n >= self.arena.cache_nodes {
            return None;
        }
        let s = self.arena.sticky[self.n];
        (s != NO_STICKY).then_some(s as usize)
    }

    /// Whether this node holds `item`.
    #[inline]
    pub fn holds(&self, item: u32) -> bool {
        self.arena.holds(self.n, item)
    }

    /// Position of `item` among the occupied slots, if present.
    fn position(&self, item: u32) -> Option<usize> {
        let base = self.base();
        self.arena.slots[base..base + self.len()]
            .iter()
            .position(|&i| i == item)
    }

    /// Record a *use* of `item` (a request served from this cache);
    /// relevant under [`EvictionPolicy::Lru`] only.
    pub fn touch(&mut self, item: u32) {
        if self.arena.eviction != EvictionPolicy::Lru {
            return;
        }
        if let Some(pos) = self.position(item) {
            self.arena.clock[self.n] += 1;
            let base = self.base();
            self.arena.stamps[base + pos] = self.arena.clock[self.n];
        }
    }

    /// Pin `item` as this node's sticky replica (inserting it if absent).
    ///
    /// # Panics
    /// Panics if a different sticky item is already pinned, or if the
    /// cache is full of *other* items and has no free slot (pin sticky
    /// items before filling).
    pub fn pin_sticky(&mut self, item: u32) {
        assert!(self.sticky().is_none(), "cache already has a sticky item");
        if let Some(pos) = self.position(item) {
            self.arena.sticky[self.n] = pos as u32;
            return;
        }
        assert!(
            self.len() < self.capacity(),
            "no free slot to pin the sticky replica"
        );
        self.arena.sticky[self.n] = self.append(item) as u32;
    }

    /// Write `item` into the first free slot, stamped by a fresh tick of
    /// the node's clock; returns the slot. The caller has checked that
    /// one is free.
    #[inline]
    fn append(&mut self, item: u32) -> usize {
        self.arena.clock[self.n] += 1;
        let (base, len) = (self.base(), self.len());
        self.arena.slots[base + len] = item;
        self.arena.stamps[base + len] = self.arena.clock[self.n];
        self.arena.len[self.n] += 1;
        len
    }

    /// Fill a free slot with `item` (no eviction). Returns `false` if the
    /// item is already present.
    ///
    /// # Panics
    /// Panics if the cache is full.
    pub fn fill(&mut self, item: u32) -> bool {
        if self.holds(item) {
            return false;
        }
        assert!(
            self.len() < self.capacity(),
            "cache is full; use insert_evict"
        );
        self.append(item);
        true
    }

    /// Replace the specific occupant `old` with `new` (used by the
    /// hill-climbing baseline, which chooses its victim deliberately).
    /// Returns `false` (unchanged) if `old` is absent, sticky, or `new`
    /// is already present.
    pub fn swap_item(&mut self, old: u32, new: u32) -> bool {
        if !self.holds(old) || self.holds(new) {
            return false;
        }
        let Some(pos) = self.position(old) else {
            return false;
        };
        if Some(pos) == self.sticky() {
            return false;
        }
        self.arena.clock[self.n] += 1;
        let base = self.base();
        self.arena.slots[base + pos] = new;
        self.arena.stamps[base + pos] = self.arena.clock[self.n];
        true
    }

    /// Insert `item`, evicting a uniformly random non-sticky occupant if
    /// the cache is full. Returns the evicted item, if any.
    ///
    /// Returns `Err(())` without modification when the item is already
    /// present, or when every slot is sticky (cannot evict).
    #[allow(clippy::result_unit_err)] // rejection carries no information beyond itself
    pub fn insert_evict(&mut self, item: u32, rng: &mut Xoshiro256) -> Result<Option<u32>, ()> {
        if self.holds(item) || self.capacity() == 0 {
            return Err(());
        }
        let (base, len) = (self.base(), self.len());
        if len < self.capacity() {
            self.append(item);
            return Ok(None);
        }
        // Choose a victim slot among non-sticky slots.
        let sticky = self.sticky();
        let candidates = len - usize::from(sticky.is_some());
        if candidates == 0 {
            return Err(());
        }
        let pick = match self.arena.eviction {
            EvictionPolicy::Random => random_non_sticky(rng, candidates, sticky),
            // LRU and FIFO: smallest stamp among non-sticky slots.
            EvictionPolicy::Lru | EvictionPolicy::Fifo => (0..len)
                .filter(|&s| Some(s) != sticky)
                .min_by_key(|&s| self.arena.stamps[base + s])
                .expect("candidates > 0"),
        };
        let evicted = self.arena.slots[base + pick];
        self.arena.clock[self.n] += 1;
        self.arena.slots[base + pick] = item;
        self.arena.stamps[base + pick] = self.arena.clock[self.n];
        Ok(Some(evicted))
    }

    /// Erase a uniformly random non-sticky occupant (fault injection:
    /// a slot failure loses its content without a replacement arriving).
    /// Returns the lost item, or `None` when nothing is erasable.
    fn drop_random_non_sticky(&mut self, rng: &mut Xoshiro256) -> Option<u32> {
        let sticky = self.sticky();
        let len = self.len();
        let candidates = len - usize::from(sticky.is_some());
        if candidates == 0 {
            return None;
        }
        let pick = random_non_sticky(rng, candidates, sticky);
        let base = self.base();
        let lost = self.arena.slots[base + pick];
        // Shift the tail down one slot (the arena analogue of Vec::remove).
        self.arena
            .slots
            .copy_within(base + pick + 1..base + len, base + pick);
        self.arena
            .stamps
            .copy_within(base + pick + 1..base + len, base + pick);
        self.arena.len[self.n] -= 1;
        // The sticky slot's index shifts down when a lower slot vanishes.
        if let Some(sticky) = sticky {
            if sticky > pick {
                self.arena.sticky[self.n] = (sticky - 1) as u32;
            }
        }
        Some(lost)
    }
}

/// A uniformly random one of the `candidates` occupied slots that are not
/// `sticky`: one draw from `rng`, stepping over the sticky slot.
#[inline]
fn random_non_sticky(rng: &mut Xoshiro256, candidates: usize, sticky: Option<usize>) -> usize {
    let pick = rng.index(candidates);
    match sticky {
        Some(sticky) if pick >= sticky => pick + 1,
        _ => pick,
    }
}

/// `next`-link sentinel: end of a queue / end of the free list.
const NIL: u32 = u32::MAX;

/// Word offset and mask of `item` within one node's pending-item bitset.
#[inline]
fn pending_bit(item: u32) -> (usize, u64) {
    (item as usize / 64, 1 << (item % 64))
}

/// Flat arena of per-node pending-request queues.
///
/// Replaces the engines' per-node `Vec<Request>` jagged vectors: all
/// requests live in struct-of-arrays entry storage threaded into
/// per-node FIFO lists, with freed entries recycled through a free list.
/// After warmup a trial's steady-state request population churns in
/// place with **zero allocation**; across trials the arena is part of
/// [`crate::engine::TrialScratch`] and is reused outright.
///
/// Queue order is insertion order, exactly matching `Vec::push` +
/// `retain_mut`, so fulfillment and settlement sequences — and therefore
/// RNG consumption and metrics — are bit-identical to the jagged layout.
///
/// # The exchange step ([`RequestArena::meet`])
///
/// An arena sized with [`RequestArena::reset_indexed`] makes a meeting
/// cost O(ρ) instead of O(pending), with two per-node structures:
///
/// * **Round counter and baseline column.** Property 2's `y` — the
///   queries a request has made since it was created — is the number of
///   cache-carrying peers its *node* has met since then. `rounds[node]`
///   counts those meetings while the node has a request pending (every
///   meeting a queued request sees, so none of its queries is lost);
///   `queries[entry]` holds the counter's value at `push`, and the
///   difference is taken at fulfillment. A meeting that fulfills nothing
///   touches no entry, and one at an idle node touches nothing at all.
/// * **Pending-item index.** `pending` is a per-node bitset of the items
///   with at least one queued request (`⌈items/64⌉` words per node). A
///   meeting tests the peer's ≤ ρ cached items against it and walks the
///   node's queue only on a hit.
///
/// Order is preserved because the index only decides *whether* to walk:
/// a walk visits the whole queue front to back, as `retain` does, so
/// fulfillments come out in insertion order and the float sums, the
/// policy's `Fulfillment` slice and its RNG draws are those of the
/// eager walk.
#[derive(Clone, Debug)]
pub struct RequestArena {
    /// First pending entry per node ([`NIL`] = empty).
    head: Vec<u32>,
    /// Last pending entry per node (push target).
    tail: Vec<u32>,
    /// Entry link: next entry in the same node's queue, or free list.
    next: Vec<u32>,
    /// Requested item per entry.
    item: Vec<u32>,
    /// Creation time per entry.
    created: Vec<f64>,
    /// Per entry, the QCR reaction input: under [`RequestArena::meet`]
    /// the node's `rounds` value at push (the baseline), under
    /// [`RequestArena::retain`] the caller's eager count. Both start a
    /// fresh request at "zero queries so far".
    queries: Vec<u64>,
    /// Head of the recycled-entry list.
    free: u32,
    /// Live entries across all nodes.
    len: u64,
    /// Meetings with a cache-carrying peer while a request was pending,
    /// per node (empty unless sized by [`RequestArena::reset_indexed`]).
    rounds: Vec<u64>,
    /// Per-node bitset of items with a pending request, `words` words
    /// per node (empty unless sized by [`RequestArena::reset_indexed`]).
    pending: Vec<u64>,
    /// Bitset stride: `⌈items/64⌉`.
    words: usize,
    /// Queue entries `meet` has visited (the cost-shape regression tests
    /// read it).
    #[cfg(test)]
    pub(crate) walked: u64,
}

impl Default for RequestArena {
    fn default() -> Self {
        Self::new()
    }
}

impl RequestArena {
    /// Empty arena for zero nodes; call [`RequestArena::reset_indexed`]
    /// (or [`RequestArena::reset`]) to size.
    pub fn new() -> Self {
        RequestArena {
            head: Vec::new(),
            tail: Vec::new(),
            next: Vec::new(),
            item: Vec::new(),
            created: Vec::new(),
            queries: Vec::new(),
            free: NIL,
            len: 0,
            rounds: Vec::new(),
            pending: Vec::new(),
            words: 0,
            #[cfg(test)]
            walked: 0,
        }
    }

    /// Clear all queues and size for `nodes`, keeping entry capacity.
    /// The arena carries no round counters and no pending-item index:
    /// this is the sizing for [`RequestArena::retain`] callers.
    pub fn reset(&mut self, nodes: usize) {
        self.head.clear();
        self.head.resize(nodes, NIL);
        self.tail.clear();
        self.tail.resize(nodes, NIL);
        self.next.clear();
        self.item.clear();
        self.created.clear();
        self.queries.clear();
        self.free = NIL;
        self.len = 0;
        self.rounds.clear();
        self.pending.clear();
        self.words = 0;
        #[cfg(test)]
        {
            self.walked = 0;
        }
    }

    /// [`RequestArena::reset`] plus zeroed round counters and an empty
    /// pending-item index over a catalogue of `items`: the sizing for
    /// [`RequestArena::meet`] callers.
    pub fn reset_indexed(&mut self, nodes: usize, items: usize) {
        self.reset(nodes);
        self.rounds.resize(nodes, 0);
        self.words = items.div_ceil(64);
        self.pending.resize(nodes * self.words, 0);
    }

    /// Total pending requests across all nodes.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether no request is pending anywhere.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Append a fresh request (zero queries) to `node`'s queue.
    pub fn push(&mut self, node: usize, item: u32, created: f64) {
        // Without round counters (`reset`) the column starts at 0, which
        // is where `retain`'s eager count starts.
        let baseline = match self.rounds.get(node) {
            Some(&rounds) => {
                let (word, mask) = pending_bit(item);
                self.pending[node * self.words + word] |= mask;
                rounds
            }
            None => 0,
        };
        let slot = if self.free != NIL {
            let slot = self.free as usize;
            self.free = self.next[slot];
            self.item[slot] = item;
            self.created[slot] = created;
            self.queries[slot] = baseline;
            self.next[slot] = NIL;
            slot as u32
        } else {
            self.item.push(item);
            self.created.push(created);
            self.queries.push(baseline);
            self.next.push(NIL);
            (self.item.len() - 1) as u32
        };
        if self.tail[node] == NIL {
            self.head[node] = slot;
        } else {
            self.next[self.tail[node] as usize] = slot;
        }
        self.tail[node] = slot;
        self.len += 1;
    }

    /// Unlink entry `cur` (whose predecessor in `node`'s queue is `prev`
    /// and successor `after`) and recycle it.
    #[inline]
    fn unlink(&mut self, node: usize, prev: u32, cur: u32, after: u32) {
        if prev == NIL {
            self.head[node] = after;
        } else {
            self.next[prev as usize] = after;
        }
        if self.tail[node] == cur {
            self.tail[node] = prev;
        }
        self.next[cur as usize] = self.free;
        self.free = cur;
        self.len -= 1;
    }

    /// One side of a meeting's exchange: `node` queries `peer`. Every
    /// pending request of `node` for an item `peer` holds is removed and
    /// reported, in queue order, as `fulfilled(item, created, queries)`,
    /// where `queries` counts this meeting.
    ///
    /// Queries only count against cache-carrying nodes: in a dedicated
    /// population, meeting another client (capacity 0) neither fulfills
    /// nor advances the round counter. Nor does a meeting the fault model
    /// dropped, for which the engines do not call this at all.
    ///
    /// Costs one test and changes nothing when `node` has nothing pending
    /// (neither the round counter nor the peer's slots are touched), O(ρ)
    /// when nothing is fulfilled and one pass over `node`'s queue
    /// otherwise. The first two are inlined into the caller; only a hit
    /// calls out to the walk. Rounds count only while a request is
    /// pending, and a request's `queries` is the rounds since it was
    /// queued, so while no pending request of `node` can be served its
    /// meetings may go unmet without changing any count reported: the
    /// lane driver skips them (`Lane::quiet_run`). Requires
    /// [`RequestArena::reset_indexed`].
    #[inline]
    pub fn meet(&mut self, node: usize, peer: CacheRef<'_>, fulfilled: impl FnMut(u32, f64, u64)) {
        if self.head[node] == NIL || peer.capacity() == 0 {
            return;
        }
        self.rounds[node] += 1;
        let pending = &self.pending[node * self.words..(node + 1) * self.words];
        let hit = peer.items().iter().any(|&item| {
            let (word, mask) = pending_bit(item);
            pending[word] & mask != 0
        });
        if hit {
            self.serve(node, peer, fulfilled);
        }
    }

    /// `meet` after a hit: walk the queue front to back, reporting what
    /// `peer` holds and rebuilding the node's bits from the entries that
    /// stay.
    #[inline(never)]
    fn serve(&mut self, node: usize, peer: CacheRef<'_>, mut fulfilled: impl FnMut(u32, f64, u64)) {
        let peer_items = peer.items();
        let rounds = self.rounds[node];
        let base = node * self.words;
        self.pending[base..base + self.words].fill(0);
        let mut prev = NIL;
        let mut cur = self.head[node];
        while cur != NIL {
            let i = cur as usize;
            let after = self.next[i];
            let item = self.item[i];
            #[cfg(test)]
            {
                self.walked += 1;
            }
            if peer_items.contains(&item) {
                fulfilled(item, self.created[i], rounds - self.queries[i]);
                self.unlink(node, prev, cur, after);
            } else {
                let (word, mask) = pending_bit(item);
                self.pending[base + word] |= mask;
                prev = cur;
            }
            cur = after;
        }
    }

    /// Walk `node`'s queue in insertion order; `keep(item, created,
    /// queries)` decides per request whether it stays pending. Removed
    /// entries are recycled. Semantically `Vec::retain_mut`.
    ///
    /// This is the eager exchange — every pending entry visited at every
    /// meeting — and `sim::sharded` is its one caller, for two reasons:
    ///
    /// * A phase-B (cross-shard) meeting can be *earlier* than requests
    ///   phase A already queued (the `created > time` guard in
    ///   `keep_or_fulfill`), so a per-node round counter would count
    ///   meetings a request did not yet exist for.
    /// * Round counters and a pending-item index per node would add
    ///   megabytes at the 10⁵–10⁶ nodes the sharded engine is for.
    ///
    /// The serial and discrete engines use [`RequestArena::meet`].
    pub fn retain(&mut self, node: usize, mut keep: impl FnMut(u32, f64, &mut u64) -> bool) {
        debug_assert!(
            self.rounds.is_empty(),
            "retain on an indexed arena would leave the index stale"
        );
        let mut prev = NIL;
        let mut cur = self.head[node];
        while cur != NIL {
            let i = cur as usize;
            let after = self.next[i];
            if keep(self.item[i], self.created[i], &mut self.queries[i]) {
                prev = cur;
            } else {
                self.unlink(node, prev, cur, after);
            }
            cur = after;
        }
    }

    /// Iterate every pending request as `(node, item, created)` — nodes
    /// ascending, each queue in insertion order (the settlement sweep).
    pub fn iter(&self) -> impl Iterator<Item = (usize, u32, f64)> + '_ {
        self.head.iter().enumerate().flat_map(move |(node, &h)| {
            let mut cur = h;
            std::iter::from_fn(move || {
                if cur == NIL {
                    return None;
                }
                let i = cur as usize;
                cur = self.next[i];
                Some((node, self.item[i], self.created[i]))
            })
        })
    }
}

/// Global mutable simulation state.
#[derive(Clone, Debug)]
pub struct SimState {
    /// Per-node caches (struct-of-arrays).
    pub caches: CacheArena,
    /// Live replica count per item (kept in sync with the caches).
    pub replicas: Vec<u32>,
    /// Sticky-seed node of each item (`usize::MAX` = none).
    pub sticky_owner: Vec<usize>,
    /// Total item copies transferred between nodes (energy proxy).
    pub transmissions: u64,
}

impl SimState {
    /// Apply an eviction rule to every cache (ablation hook; call before
    /// seeding).
    pub fn set_eviction(&mut self, policy: EvictionPolicy) {
        self.caches.set_eviction(policy);
    }
}

impl Default for SimState {
    /// A zero-node, zero-item state (a scratch placeholder to `reset`).
    fn default() -> Self {
        SimState::new(0, 0, 0)
    }
}

impl SimState {
    /// Empty caches, no sticky seeds (pure P2P: every node has capacity
    /// `rho`).
    pub fn new(nodes: usize, items: usize, rho: usize) -> Self {
        SimState {
            caches: CacheArena::new(nodes, nodes, rho),
            replicas: vec![0; items],
            sticky_owner: vec![usize::MAX; items],
            transmissions: 0,
        }
    }

    /// Reset to empty `rho`-slot caches on nodes `0..servers`, zero
    /// capacity on the rest (a dedicated population's clients) and no
    /// sticky seeds — [`SimState::new`]'s state when `servers == nodes` —
    /// reusing the existing allocations: the scratch-pool hook that
    /// removes per-trial state construction from the campaign hot path.
    pub fn reset(&mut self, nodes: usize, servers: usize, items: usize, rho: usize) {
        self.caches.reset(nodes, servers, rho);
        self.replicas.clear();
        self.replicas.resize(items, 0);
        self.sticky_owner.clear();
        self.sticky_owner.resize(items, usize::MAX);
        self.transmissions = 0;
    }

    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        self.caches.nodes()
    }

    /// Number of items.
    pub fn items(&self) -> usize {
        self.replicas.len()
    }

    /// QCR warm start (§6.1): pin item `i`'s sticky replica on a server
    /// (round robin in random server order), then fill every remaining
    /// slot with distinct random items so the global cache starts full.
    /// Zero-capacity (client) caches are skipped.
    pub fn seed_sticky_and_fill(&mut self, rng: &mut Xoshiro256) {
        let items = self.items();
        // Cache-carrying nodes are the id prefix `0..servers`.
        let mut node_order: Vec<usize> = (0..self.servers()).collect();
        assert!(!node_order.is_empty(), "no cache-carrying nodes to seed");
        let nodes = node_order.len();
        rng.shuffle(&mut node_order);
        for item in 0..items {
            let node = node_order[item % nodes];
            let cache = self.caches.node(node);
            if cache.sticky_item().is_none() && cache.len() < cache.capacity() {
                self.caches.node_mut(node).pin_sticky(item as u32);
                self.sticky_owner[item] = node;
                self.replicas[item] += 1;
            } else if !cache.holds(item as u32) {
                // More items than nodes: overflow seeds are regular
                // (non-sticky) copies on the next nodes with room.
                if cache.len() < cache.capacity() {
                    self.caches.node_mut(node).fill(item as u32);
                    self.replicas[item] += 1;
                }
            }
        }
        // Fill remaining slots with random distinct items.
        for &node in &node_order {
            let mut guard = 0;
            while self.caches.node(node).len() < self.caches.capacity_of(node) {
                let item = rng.index(items) as u32;
                if self.caches.node_mut(node).fill(item) {
                    self.replicas[item as usize] += 1;
                }
                guard += 1;
                if guard > 100 * items {
                    break; // catalog smaller than capacity: leave free
                }
            }
        }
    }

    /// Number of cache-carrying (server) nodes.
    pub fn servers(&self) -> usize {
        self.caches.cache_nodes()
    }

    /// Pin caches to a precomputed allocation (for the fixed-allocation
    /// competitors). No sticky slots; the policies never mutate caches.
    /// Column `k` of the matrix maps to the `k`-th cache-carrying node
    /// (in a dedicated population, servers occupy the low node ids).
    pub fn load_allocation(&mut self, alloc: &AllocationMatrix) {
        assert_eq!(
            alloc.servers(),
            self.servers(),
            "allocation server count mismatch"
        );
        assert_eq!(alloc.items(), self.items());
        // Servers are the id prefix, so column k is node k.
        for node in 0..self.servers() {
            for item in alloc.cache_of(node) {
                if self.caches.node_mut(node).fill(item as u32) {
                    self.replicas[item] += 1;
                }
            }
        }
    }

    /// Fault injection: erase a random non-sticky slot of `server`,
    /// keeping the replica count in sync. Returns the lost item, if any.
    pub fn fail_cache_slot(&mut self, server: usize, rng: &mut Xoshiro256) -> Option<u32> {
        let lost = self.caches.node_mut(server).drop_random_non_sticky(rng)?;
        self.replicas[lost as usize] -= 1;
        Some(lost)
    }

    /// Copy `item` into `to`'s cache with random replacement (respecting
    /// sticky slots). Returns `true` if a new replica was created.
    pub fn replicate(&mut self, item: u32, to: usize, rng: &mut Xoshiro256) -> bool {
        match self.caches.node_mut(to).insert_evict(item, rng) {
            Ok(evicted) => {
                self.replicas[item as usize] += 1;
                if let Some(old) = evicted {
                    self.replicas[old as usize] -= 1;
                }
                self.transmissions += 1;
                true
            }
            Err(()) => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A one-node arena stands in for the former per-node cache object.
    fn single(rho: usize) -> CacheArena {
        CacheArena::new(1, 1, rho)
    }

    #[test]
    fn cache_fill_and_membership() {
        let mut a = single(3);
        let mut c = a.node_mut(0);
        assert!(c.fill(4));
        assert!(!c.fill(4));
        assert!(c.fill(7));
        assert!(c.holds(4));
        assert!(!c.holds(5));
        assert_eq!(a.node(0).len(), 2);
        assert!(!a.node(0).is_empty());
    }

    #[test]
    fn eviction_is_random_but_never_sticky() {
        let mut rng = Xoshiro256::seed_from_u64(1);
        let mut a = single(3);
        let mut c = a.node_mut(0);
        c.pin_sticky(0);
        c.fill(1);
        c.fill(2);
        // Insert many items: 0 must survive every eviction.
        for item in 3..10u32 {
            let evicted = a.node_mut(0).insert_evict(item, &mut rng).unwrap();
            assert_ne!(evicted, Some(0), "sticky item evicted");
            assert!(a.node(0).holds(0));
            assert_eq!(a.node(0).len(), 3);
        }
    }

    #[test]
    fn fifo_evicts_oldest_insertion() {
        let mut rng = Xoshiro256::seed_from_u64(40);
        let mut a = single(3);
        a.set_eviction(EvictionPolicy::Fifo);
        let mut c = a.node_mut(0);
        c.fill(0);
        c.fill(1);
        c.fill(2);
        assert_eq!(c.insert_evict(3, &mut rng), Ok(Some(0)));
        assert_eq!(c.insert_evict(4, &mut rng), Ok(Some(1)));
        assert!(c.holds(2) && c.holds(3) && c.holds(4));
    }

    #[test]
    fn lru_touch_protects_recently_used() {
        let mut rng = Xoshiro256::seed_from_u64(41);
        let mut a = single(3);
        a.set_eviction(EvictionPolicy::Lru);
        let mut c = a.node_mut(0);
        c.fill(0);
        c.fill(1);
        c.fill(2);
        // Without a touch, item 0 (oldest) would go; touching it shifts
        // the eviction to item 1.
        c.touch(0);
        assert_eq!(c.insert_evict(3, &mut rng), Ok(Some(1)));
        assert!(c.holds(0));
    }

    #[test]
    fn lru_respects_sticky() {
        let mut rng = Xoshiro256::seed_from_u64(42);
        let mut a = single(2);
        a.set_eviction(EvictionPolicy::Lru);
        let mut c = a.node_mut(0);
        c.pin_sticky(0); // oldest stamp, but pinned
        c.fill(1);
        assert_eq!(c.insert_evict(2, &mut rng), Ok(Some(1)));
        assert!(c.holds(0));
    }

    #[test]
    fn touch_is_noop_outside_lru() {
        let mut rng = Xoshiro256::seed_from_u64(43);
        let mut a = single(2);
        a.set_eviction(EvictionPolicy::Fifo);
        let mut c = a.node_mut(0);
        c.fill(0);
        c.fill(1);
        c.touch(0); // FIFO ignores uses
        assert_eq!(c.insert_evict(2, &mut rng), Ok(Some(0)));
    }

    #[test]
    fn insert_existing_is_rejected() {
        let mut rng = Xoshiro256::seed_from_u64(2);
        let mut a = single(2);
        let mut c = a.node_mut(0);
        c.fill(1);
        assert_eq!(c.insert_evict(1, &mut rng), Err(()));
    }

    #[test]
    fn all_sticky_cache_rejects_eviction() {
        let mut rng = Xoshiro256::seed_from_u64(3);
        let mut a = single(1);
        let mut c = a.node_mut(0);
        c.pin_sticky(2);
        assert_eq!(c.insert_evict(4, &mut rng), Err(()));
        assert!(c.holds(2));
    }

    #[test]
    fn pin_sticky_on_existing_item() {
        let mut a = single(2);
        let mut c = a.node_mut(0);
        c.fill(3);
        c.pin_sticky(3);
        assert_eq!(a.node(0).sticky_item(), Some(3));
        assert_eq!(a.node(0).len(), 1);
    }

    #[test]
    #[should_panic(expected = "already has a sticky item")]
    fn second_sticky_rejected() {
        let mut a = single(3);
        a.node_mut(0).pin_sticky(0);
        a.node_mut(0).pin_sticky(1);
    }

    #[test]
    fn client_nodes_have_no_storage() {
        let mut rng = Xoshiro256::seed_from_u64(13);
        let mut a = CacheArena::new(3, 1, 2);
        a.node_mut(0).fill(1);
        assert_eq!(a.capacity_of(2), 0);
        assert!(!a.node(2).holds(1));
        assert!(a.node(2).items().is_empty());
        assert_eq!(a.node(2).sticky_item(), None);
        assert_eq!(a.node_mut(2).insert_evict(1, &mut rng), Err(()));
        assert!(a.node_mut(2).drop_random_non_sticky(&mut rng).is_none());
    }

    #[test]
    fn seed_sticky_and_fill_invariants() {
        let mut rng = Xoshiro256::seed_from_u64(7);
        let mut state = SimState::new(50, 50, 5);
        state.seed_sticky_and_fill(&mut rng);
        // Every item has a sticky owner and ≥ 1 replica.
        for item in 0..50 {
            assert!(
                state.sticky_owner[item] != usize::MAX,
                "item {item} unseeded"
            );
            assert!(state.replicas[item] >= 1);
            let owner = state.sticky_owner[item];
            assert_eq!(state.caches.node(owner).sticky_item(), Some(item as u32));
        }
        // Caches are full and replica counts consistent.
        let mut recount = vec![0u32; 50];
        for c in state.caches.iter() {
            assert_eq!(c.len(), 5);
            for &i in c.items() {
                recount[i as usize] += 1;
            }
        }
        assert_eq!(recount, state.replicas);
        // Budget: 250 slots in use.
        assert_eq!(state.replicas.iter().map(|&r| r as u64).sum::<u64>(), 250);
    }

    #[test]
    fn seed_with_more_items_than_nodes() {
        let mut rng = Xoshiro256::seed_from_u64(8);
        let mut state = SimState::new(4, 10, 3);
        state.seed_sticky_and_fill(&mut rng);
        // Only 4 sticky seeds possible; every node has exactly one.
        let sticky_count = state
            .sticky_owner
            .iter()
            .filter(|&&o| o != usize::MAX)
            .count();
        assert_eq!(sticky_count, 4);
        for c in state.caches.iter() {
            assert_eq!(c.len(), 3);
        }
    }

    #[test]
    fn drop_random_keeps_sticky_tracked() {
        let mut rng = Xoshiro256::seed_from_u64(11);
        let mut a = single(4);
        let mut c = a.node_mut(0);
        c.fill(1);
        c.fill(2);
        c.pin_sticky(7); // sticky lands in slot 2
        c.fill(3);
        for _ in 0..3 {
            let lost = a.node_mut(0).drop_random_non_sticky(&mut rng).unwrap();
            assert_ne!(lost, 7, "sticky item erased");
            assert_eq!(
                a.node(0).sticky_item(),
                Some(7),
                "sticky slot index drifted"
            );
        }
        assert_eq!(a.node(0).len(), 1);
        assert!(a.node_mut(0).drop_random_non_sticky(&mut rng).is_none());
        assert!(a.node(0).holds(7));
    }

    #[test]
    fn fail_cache_slot_syncs_replicas() {
        let mut rng = Xoshiro256::seed_from_u64(12);
        let mut state = SimState::new(2, 5, 2);
        state.caches.node_mut(0).fill(1);
        state.caches.node_mut(0).fill(4);
        state.replicas = vec![0, 1, 0, 0, 1];
        let lost = state.fail_cache_slot(0, &mut rng).unwrap();
        assert_eq!(state.replicas[lost as usize], 0);
        assert_eq!(state.replicas.iter().sum::<u32>(), 1);
        // Drained caches fail without effect.
        let _ = state.fail_cache_slot(1, &mut rng);
        state.replicas = vec![0; 5];
        assert!(state.fail_cache_slot(1, &mut rng).is_none());
    }

    #[test]
    fn replicate_updates_counts() {
        let mut rng = Xoshiro256::seed_from_u64(9);
        let mut state = SimState::new(3, 5, 2);
        state.caches.node_mut(0).fill(1);
        state.replicas[1] = 1;
        assert!(state.replicate(1, 2, &mut rng));
        assert_eq!(state.replicas[1], 2);
        assert_eq!(state.transmissions, 1);
        // Duplicate insert is a no-op.
        assert!(!state.replicate(1, 2, &mut rng));
        assert_eq!(state.transmissions, 1);
    }

    #[test]
    fn replicate_with_eviction_keeps_global_count() {
        let mut rng = Xoshiro256::seed_from_u64(10);
        let mut state = SimState::new(2, 4, 1);
        state.caches.node_mut(0).fill(0);
        state.caches.node_mut(1).fill(1);
        state.replicas = vec![1, 1, 0, 0];
        assert!(state.replicate(2, 1, &mut rng));
        assert_eq!(state.replicas, vec![1, 0, 1, 0]);
        let total: u32 = state.replicas.iter().sum();
        assert_eq!(total, 2);
    }

    #[test]
    fn load_allocation_matches_matrix() {
        let counts = impatience_core::allocation::ReplicaCounts::new(vec![2, 1, 0], 3);
        let alloc = AllocationMatrix::from_counts(&counts, 2);
        let mut state = SimState::new(3, 3, 2);
        state.load_allocation(&alloc);
        assert_eq!(state.replicas, vec![2, 1, 0]);
    }

    #[test]
    fn reset_matches_fresh_construction() {
        let mut rng = Xoshiro256::seed_from_u64(21);
        let mut used = SimState::new(12, 8, 3);
        used.set_eviction(EvictionPolicy::Lru);
        used.seed_sticky_and_fill(&mut rng);
        used.replicate(0, 3, &mut rng);
        used.reset(9, 4, 6, 2);
        let fresh = SimState {
            caches: CacheArena::new(9, 4, 2),
            ..SimState::new(9, 6, 2)
        };
        assert_eq!(format!("{used:?}"), format!("{fresh:?}"));
        // And the reset state behaves identically under the same seed.
        let mut r1 = Xoshiro256::seed_from_u64(5);
        let mut r2 = Xoshiro256::seed_from_u64(5);
        let mut fresh = fresh;
        used.seed_sticky_and_fill(&mut r1);
        fresh.seed_sticky_and_fill(&mut r2);
        assert_eq!(format!("{used:?}"), format!("{fresh:?}"));
    }

    #[test]
    fn request_arena_matches_vec_retain_semantics() {
        // Mirror a jagged Vec<Vec<(item, created, queries)>> through the
        // same operation sequence and require identical contents/order.
        let mut arena = RequestArena::new();
        arena.reset(3);
        let mut model: Vec<Vec<(u32, f64, u64)>> = vec![Vec::new(); 3];
        let mut rng = Xoshiro256::seed_from_u64(77);
        for step in 0..200u32 {
            let node = rng.index(3);
            if rng.bernoulli(0.6) {
                let item = step % 7;
                arena.push(node, item, step as f64);
                model[node].push((item, step as f64, 0));
            } else {
                let drop_item = step % 7;
                arena.retain(node, |item, _, q| {
                    if item == drop_item {
                        false
                    } else {
                        *q += 1;
                        true
                    }
                });
                model[node].retain_mut(|r| {
                    if r.0 == drop_item {
                        false
                    } else {
                        r.2 += 1;
                        true
                    }
                });
            }
        }
        let expect: Vec<(usize, u32, f64)> = model
            .iter()
            .enumerate()
            .flat_map(|(n, q)| q.iter().map(move |&(i, c, _)| (n, i, c)))
            .collect();
        let got: Vec<(usize, u32, f64)> = arena.iter().collect();
        assert_eq!(got, expect);
        assert_eq!(arena.len() as usize, expect.len());
        // Reset recycles storage and empties every queue.
        arena.reset(2);
        assert!(arena.is_empty());
        assert_eq!(arena.iter().count(), 0);
    }

    #[test]
    fn request_arena_recycles_entries() {
        let mut arena = RequestArena::new();
        arena.reset(1);
        for round in 0..50 {
            arena.push(0, 1, f64::from(round));
            arena.push(0, 2, f64::from(round));
            arena.retain(0, |item, _, _| item != 1);
            arena.retain(0, |item, _, _| item != 2);
        }
        assert!(arena.is_empty());
        // Steady-state churn must not grow entry storage unboundedly.
        assert!(arena.item.len() <= 2, "entries not recycled");
    }

    /// The [`RequestArena::meet`] reference model: a `Vec` per node,
    /// `retain_mut`, and the eager per-entry `+= 1` the lazy counter
    /// replaced.
    mod meet_model {
        use super::*;
        use proptest::prelude::*;

        /// Catalogue sizes: one-word and multi-word bitsets, on both
        /// sides of a word boundary.
        const CATALOGUES: [usize; 5] = [1, 63, 64, 65, 200];

        /// A fulfillment as the engines see it: `(node, item, created,
        /// queries)`.
        type Fulfilled = (usize, u32, f64, u64);

        /// One generated step, `(kind, node, item, peer cache)`, folded
        /// onto the shape under test by `drive`.
        type Step = (u32, usize, u32, Vec<u32>);

        fn steps() -> impl Strategy<Value = Vec<Step>> {
            let peer = proptest::collection::vec(0u32..1000, 0..9);
            proptest::collection::vec((0u32..10, 0usize..4, 0u32..1000, peer), 0..250)
        }

        /// Fold a raw draw onto `0..items`: two draws in three land in
        /// the top five items (so requests and caches collide, and the
        /// bitset's last word is the busy one), the rest anywhere.
        fn fold(raw: u32, items: usize) -> u32 {
            let items = items as u32;
            if raw.is_multiple_of(3) {
                raw / 3 % items
            } else {
                items - 1 - raw / 3 % items.min(5)
            }
        }

        /// Run `steps` against `arena` (already reset to the shape) and
        /// the model. Returns both fulfillment sequences and the model's
        /// residue as `iter()` reports it.
        #[allow(clippy::type_complexity)]
        fn drive(
            arena: &mut RequestArena,
            nodes: usize,
            items: usize,
            steps: &[Step],
        ) -> (Vec<Fulfilled>, Vec<Fulfilled>, Vec<(usize, u32, f64)>) {
            let mut model: Vec<Vec<(u32, f64, u64)>> = vec![Vec::new(); nodes];
            let (mut got, mut want) = (Vec::new(), Vec::new());
            for (stamp, (kind, node, item, peer)) in steps.iter().enumerate() {
                let (node, stamp) = (node % nodes, stamp as f64);
                match kind {
                    0..=4 => {
                        let item = fold(*item, items);
                        arena.push(node, item, stamp);
                        model[node].push((item, stamp, 0));
                    }
                    // A meeting the fault model dropped: the engines
                    // make no call, and it is not a query.
                    8 => {}
                    // A peer holding anything from nothing to a full
                    // cache of eight items; kind 9 is a client, with
                    // capacity 0, which is not a query either.
                    _ => {
                        let mut peer_arena = CacheArena::new(1, usize::from(*kind != 9), 8);
                        if *kind != 9 {
                            for &raw in peer {
                                peer_arena.node_mut(0).fill(fold(raw, items));
                            }
                        }
                        let cache = peer_arena.node(0);
                        let (walked, served) = (arena.walked, got.len());
                        arena.meet(node, cache, |item, created, queries| {
                            got.push((node, item, created, queries));
                        });
                        // The index is exact: no walk comes back empty.
                        assert!(arena.walked == walked || got.len() > served);
                        if cache.capacity() > 0 {
                            model[node].retain_mut(|r| {
                                r.2 += 1;
                                if cache.holds(r.0) {
                                    want.push((node, r.0, r.1, r.2));
                                }
                                !cache.holds(r.0)
                            });
                        }
                    }
                }
            }
            let residue = model
                .iter()
                .enumerate()
                .flat_map(|(n, q)| q.iter().map(move |&(i, c, _)| (n, i, c)))
                .collect();
            (got, want, residue)
        }

        /// Lazy rounds: node 0 idles through a hundred meetings before its
        /// first request and fifty between two, and node 1, a client of a
        /// dedicated population, meets only clients for long stretches
        /// while it waits. Every `queries` is still the eager count of
        /// cache-carrying peers met while the request was queued.
        #[test]
        fn idle_meetings_count_no_queries() {
            // `fold` maps the raw draw 3·x to item x.
            let (push, holder, client) = (0, 5, 9);
            let step = |kind, node, item: u32| (kind, node, 3 * item, vec![3 * item]);
            let run = |n, kind, node, item| std::iter::repeat_n(step(kind, node, item), n);
            let steps: Vec<Step> = run(100, holder, 0, 10)
                .chain(run(1, push, 0, 10))
                .chain(run(5, holder, 0, 20))
                .chain(run(5, client, 0, 0))
                .chain(run(1, holder, 0, 10))
                .chain(run(50, holder, 0, 10))
                .chain(run(1, push, 0, 10))
                .chain(run(3, holder, 0, 20))
                .chain(run(1, holder, 0, 10))
                .chain(run(1, push, 1, 30))
                .chain(run(20, client, 1, 0))
                .chain(run(2, holder, 1, 20))
                .chain(run(20, client, 1, 0))
                .chain(run(1, holder, 1, 30))
                .collect();
            let mut arena = RequestArena::new();
            arena.reset_indexed(2, 65);
            let (got, want, residue) = drive(&mut arena, 2, 65, &steps);
            assert_eq!(got, want);
            let queries: Vec<u64> = got.iter().map(|f| f.3).collect();
            assert_eq!(queries, [6, 4, 3]);
            assert!(residue.is_empty() && arena.is_empty());
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            #[test]
            fn meet_matches_the_eager_vec_model(
                shapes in ((1usize..5, 0usize..5), (1usize..5, 0usize..5)),
                first in steps(),
                second in steps(),
            ) {
                // One arena through two trials of different shapes: the
                // second is the scratch-reuse case.
                let mut arena = RequestArena::new();
                let ((nodes_1, cat_1), (nodes_2, cat_2)) = shapes;
                for (nodes, items, steps) in [
                    (nodes_1, CATALOGUES[cat_1], &first),
                    (nodes_2, CATALOGUES[cat_2], &second),
                ] {
                    arena.reset_indexed(nodes, items);
                    prop_assert!(arena.is_empty());
                    let (got, want, residue) = drive(&mut arena, nodes, items, steps);
                    prop_assert_eq!(got, want);
                    prop_assert_eq!(arena.iter().collect::<Vec<_>>(), residue.clone());
                    prop_assert_eq!(arena.len() as usize, residue.len());
                }
            }
        }
    }

    #[test]
    fn split_into_blocks_preserves_contents() {
        let mut rng = Xoshiro256::seed_from_u64(14);
        let mut state = SimState::new(10, 10, 2);
        state.seed_sticky_and_fill(&mut rng);
        let expect: Vec<Vec<u32>> = state.caches.iter().map(|c| c.items().to_vec()).collect();
        let sticky: Vec<Option<u32>> = state.caches.iter().map(|c| c.sticky_item()).collect();
        let blocks = state.caches.split_into_blocks(&[3, 4, 3]);
        assert_eq!(blocks.len(), 3);
        let mut global = 0usize;
        for block in &blocks {
            for local in 0..block.nodes() {
                assert_eq!(block.node(local).items(), &expect[global][..]);
                assert_eq!(block.node(local).sticky_item(), sticky[global]);
                global += 1;
            }
        }
        assert_eq!(global, 10);
    }
}
