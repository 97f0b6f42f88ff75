//! The per-node protocol state machine.
//!
//! Each node is an independent task driven purely by delivered messages
//! and timers; it owns no global view. Its state splits into:
//!
//! * **durable** (write-ahead semantics: survives a crash) — the mandate
//!   pool, the escrow of un-acked outgoing transfers, the idempotency
//!   table of applied incoming transfers, and the node's RNG. This is
//!   exactly the state the conservation invariant audits, which is why a
//!   crash mid-handoff can never duplicate or leak a mandate.
//! * **volatile** (lost on crash, restored from a periodic checkpoint) —
//!   pending requests, per-window exchange state, and retry timers.
//!   Losing it degrades welfare (abandoned requests settle as
//!   unfulfilled) but never corrupts mandate accounting.
//!
//! The protocol's decisions are the engines': a fulfillment mints through
//! [`QcrRules::mint`], a pool is divided by [`share`], every add-with-cap
//! is [`pool_add`]. Only the odd-leftover tie-break (no shared coin
//! between two tasks) and the two-phase transfer are this runtime's own.
//!
//! Handlers communicate only through [`Ctx`]: outgoing frames, new
//! timers, metrics, and the kernel-side request registry (the omniscient
//! "user" that books each request's welfare exactly once, even when a
//! crash resurrects an already-fulfilled request from a stale
//! checkpoint). A handler writes each outgoing frame straight from its
//! state into a buffer off the transport's spare list, and reads each
//! delivered one from the kernel's reused [`Lists`]: a contact window
//! builds no [`Msg`] and, once the buffers have grown, allocates nothing.

use std::collections::BTreeMap;

use impatience_core::rng::Xoshiro256;
use impatience_core::utility::DelayUtility;
use impatience_obs::{Recorder, Sink};
use impatience_sim::policy::{next_key, pool_add, share, Pool, QcrRules};
use impatience_sim::state::SimState;
use impatience_sim::Metrics;

use crate::config::{MAX_ATTEMPTS, RTO_BASE, RTO_CAP};
use crate::kernel::{Ledger, NetStats, ReqRecord};
use crate::wire::{self, Decoded, Lists, Msg};

/// Node-local timers, scheduled through [`Ctx::timers`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) enum Timer {
    /// Re-drive a stalled window exchange (lost advert / request).
    WindowRetry {
        /// The peer of the exchange.
        peer: u32,
        /// The window the exchange belongs to.
        window: u64,
    },
    /// Re-send an un-acked mandate transfer.
    XferRetry {
        /// The transfer id.
        xfer: u64,
    },
    /// Periodic liveness beacon (kernel-observed).
    Heartbeat,
    /// Periodic volatile-state checkpoint.
    Checkpoint,
}

/// One pending (unfulfilled) request at its origin node.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct PendingReq {
    /// Index into the kernel's request registry.
    pub req_id: u64,
    /// The wanted item.
    pub item: u32,
    /// Arrival time.
    pub created: f64,
    /// Query counter (meetings with cache-carrying peers lacking the
    /// item), the `y` of ψ(y).
    pub queries: u64,
}

/// An escrowed outgoing mandate transfer (durable until acked).
#[derive(Clone, Copy, Debug)]
pub(crate) struct Xfer {
    /// Receiver.
    pub peer: u32,
    /// Mandated item.
    pub item: u32,
    /// Mandates escrowed.
    pub count: u64,
    /// Execution (store a copy) vs custody handoff.
    pub execute: bool,
    /// Send attempts so far.
    pub attempts: u32,
    /// Retry budget exhausted; waits in escrow forever.
    pub parked: bool,
}

/// Per-window exchange state with one peer (volatile). A node reuses
/// the exchanges its closed windows leave, for their lists' buffers.
#[derive(Clone, Debug, Default)]
pub(crate) struct Exchange {
    /// Window id.
    pub window: u64,
    /// Peer advert received and processed.
    pub advert_seen: bool,
    /// Items the peer advertised (sorted).
    pub peer_items: Vec<u32>,
    /// Mandate pool the peer advertised.
    pub peer_mandates: Vec<(u32, u64)>,
    /// Items we requested this window.
    pub requested: Vec<u32>,
    /// A fulfill frame arrived.
    pub fulfill_seen: bool,
    /// Window-retry rounds fired.
    pub retries: u32,
    /// Adverts re-sent in response to duplicate adverts (anti-entropy;
    /// bounded to stop live nodes ping-ponging).
    pub dup_resends: u32,
}

impl Exchange {
    /// Start window `window` afresh, keeping the lists' buffers.
    fn reopen(&mut self, window: u64) {
        let mut fresh = Exchange {
            window,
            peer_items: std::mem::take(&mut self.peer_items),
            peer_mandates: std::mem::take(&mut self.peer_mandates),
            requested: std::mem::take(&mut self.requested),
            ..Exchange::default()
        };
        fresh.peer_items.clear();
        fresh.peer_mandates.clear();
        fresh.requested.clear();
        *self = fresh;
    }
}

/// A map kept as a short vector: a linear find, insert-or-replace and
/// `swap_remove`. For a node's open window exchanges and the transport's
/// open links, a handful of entries that nothing visits in key order,
/// where a tree would allocate a node per first insert.
#[derive(Clone, Debug)]
pub(crate) struct VecMap<K, V>(Vec<(K, V)>);

impl<K, V> Default for VecMap<K, V> {
    fn default() -> Self {
        VecMap(Vec::new())
    }
}

impl<K: PartialEq, V> VecMap<K, V> {
    fn position(&self, key: &K) -> Option<usize> {
        self.0.iter().position(|(k, _)| k == key)
    }

    pub(crate) fn get(&self, key: &K) -> Option<&V> {
        self.0.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    pub(crate) fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        self.0.iter_mut().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Insert, returning the value `key` had.
    pub(crate) fn insert(&mut self, key: K, value: V) -> Option<V> {
        match self.position(&key) {
            Some(i) => Some(std::mem::replace(&mut self.0[i].1, value)),
            None => {
                self.0.push((key, value));
                None
            }
        }
    }

    pub(crate) fn remove(&mut self, key: &K) -> Option<V> {
        let i = self.position(key)?;
        Some(self.0.swap_remove(i).1)
    }

    pub(crate) fn clear(&mut self) {
        self.0.clear();
    }
}

/// Everything a handler may touch outside the node itself.
pub(crate) struct Ctx<'a, S: Sink> {
    /// Current simulation time.
    pub t: f64,
    /// Ground-truth caches (each node only reads/writes its own row).
    pub state: &'a mut SimState,
    /// Trial welfare accounting.
    pub metrics: &'a mut Metrics,
    /// Protocol counters.
    pub stats: &'a mut NetStats,
    /// Global mandate conservation ledger.
    pub ledger: &'a mut Ledger,
    /// Kernel-side request registry indexed by `req_id`.
    pub registry: &'a mut Vec<ReqRecord>,
    /// Outgoing frames: (receiver, encoded frame).
    pub out: &'a mut Vec<(u32, Vec<u8>)>,
    /// Buffers to encode frames into: the transport's spare list.
    pub spare: &'a mut Vec<Vec<u8>>,
    /// New timers for this node: (fire time, timer).
    pub timers: &'a mut Vec<(f64, Timer)>,
    /// Event recorder.
    pub rec: &'a mut Recorder<S>,
    /// The welfare utility (books `h(wait)` gains, like the engine's
    /// `config.utility`).
    pub utility: &'a dyn DelayUtility,
    /// The protocol's decisions, shared with the engines: minting here
    /// is theirs, built from the same inputs.
    pub rules: &'a QcrRules,
    /// Global transfer-id counter.
    pub next_xfer: &'a mut u64,
}

impl<S: Sink> Ctx<'_, S> {
    /// Queue a frame to `to`, written by `write` into a spare buffer.
    fn send(&mut self, to: u32, write: impl FnOnce(&mut Vec<u8>)) {
        let mut frame = self.spare.pop().unwrap_or_default();
        write(&mut frame);
        self.out.push((to, frame));
    }

    /// Queue a list-free message (handoff or ack) to `to`.
    fn send_msg(&mut self, to: u32, msg: &Msg) {
        self.send(to, |buf| msg.encode_into(buf));
    }
}

/// One protocol node.
#[derive(Clone, Debug)]
pub(crate) struct Node {
    /// Node id (row in the cache arena).
    pub id: u32,
    /// Processing events (false while crashed or after a stall kill).
    pub alive: bool,
    /// Wedged by chaos: drops everything, including heartbeats.
    pub stalled: bool,
    /// Bumped on every restart.
    pub incarnation: u32,
    /// Node-private randomness (durable).
    pub rng: Xoshiro256,
    // --- durable mandate ledger ---
    /// Mandate pool: item → count (≤ mandate cap).
    pub pool: Pool,
    /// Un-acked outgoing transfers.
    pub escrow: BTreeMap<u64, Xfer>,
    /// Applied incoming transfers: xfer id → mandates consumed. The
    /// idempotent-dedup table: redelivered handoffs re-ack this value.
    pub applied: BTreeMap<u64, u64>,
    // --- volatile ---
    /// Outstanding requests.
    pub pending: Vec<PendingReq>,
    /// Open window exchanges by peer.
    pub exchanges: VecMap<u32, Exchange>,
    /// Last volatile checkpoint (what a restart recovers).
    pub ckpt_pending: Vec<PendingReq>,
    // --- buffers ---
    /// The cache slots as they were when last copied into `advert_items`.
    advert_slots: Vec<u32>,
    /// `advert_slots` sorted: the items every advert carries.
    advert_items: Vec<u32>,
    /// Exchanges of closed windows, reused by the next contacts.
    spare_exchanges: Vec<Exchange>,
    /// The grants a peer's request is answered with.
    grants: Vec<u32>,
}

impl Node {
    pub(crate) fn new(id: u32, rng: Xoshiro256) -> Node {
        Node {
            id,
            alive: true,
            stalled: false,
            incarnation: 0,
            rng,
            pool: Pool::new(),
            escrow: BTreeMap::new(),
            applied: BTreeMap::new(),
            pending: Vec::new(),
            exchanges: VecMap::default(),
            ckpt_pending: Vec::new(),
            advert_slots: Vec::new(),
            advert_items: Vec::new(),
            spare_exchanges: Vec::new(),
            grants: Vec::new(),
        }
    }

    /// Capped exponential backoff with ±50% jitter.
    fn backoff(&mut self, attempts: u32) -> f64 {
        let raw = RTO_BASE * 2f64.powi(attempts.min(16) as i32);
        raw.min(RTO_CAP) * (0.5 + self.rng.f64())
    }

    /// Send `peer` the advert of `window`: the cache's items, sorted
    /// again only when the slots differ from the ones sorted last, and the
    /// mandate pool, written straight into the frame.
    fn send_advert<S: Sink>(&mut self, ctx: &mut Ctx<'_, S>, peer: u32, window: u64) {
        let cache = ctx.state.caches.node(self.id as usize);
        let slots = cache.items();
        if slots != self.advert_slots.as_slice() {
            self.advert_slots.clear();
            self.advert_slots.extend_from_slice(slots);
            self.advert_items.clone_from(&self.advert_slots);
            self.advert_items.sort_unstable();
        }
        let (items, pool) = (&self.advert_items, &self.pool);
        ctx.send(peer, |buf| {
            wire::encode_advert(buf, window, items, pool.iter().map(|(&i, &c)| (i, c)));
        });
    }

    /// A contact window to `peer` just opened.
    pub(crate) fn on_contact<S: Sink>(&mut self, ctx: &mut Ctx<'_, S>, peer: u32, window: u64) {
        let mut ex = self.spare_exchanges.pop().unwrap_or_default();
        ex.reopen(window);
        if let Some(old) = self.exchanges.insert(peer, ex) {
            self.spare_exchanges.push(old);
        }
        self.send_advert(ctx, peer, window);
        // Re-drive every live escrowed transfer aimed at this peer: the
        // jittered per-window retries do the short-timescale recovery,
        // the next contact does the long one.
        let xfers: Vec<u64> = self
            .escrow
            .iter()
            .filter(|(_, x)| x.peer == peer && !x.parked)
            .map(|(&id, _)| id)
            .collect();
        for id in xfers {
            self.send_xfer(ctx, id);
        }
        let delay = self.backoff(0);
        ctx.timers
            .push((ctx.t + delay, Timer::WindowRetry { peer, window }));
    }

    /// The window to `peer` closed (link down or peer churned away).
    pub(crate) fn on_link_down<S: Sink>(&mut self, ctx: &mut Ctx<'_, S>, peer: u32, window: u64) {
        let Some(ex) = self.exchanges.get(&peer) else {
            return;
        };
        if ex.window != window {
            return; // a newer exchange replaced it
        }
        let advert_seen = ex.advert_seen;
        if let Some(ex) = self.exchanges.remove(&peer) {
            self.spare_exchanges.push(ex);
        }
        if !advert_seen {
            ctx.stats.handshake_timeouts += 1;
            ctx.rec.fault(ctx.t, "net_handshake_timeout", self.id, peer);
        }
    }

    /// The kernel parked a new request at this node (origin lacks the
    /// item; immediate hits never reach the node).
    pub(crate) fn on_request_arrival(&mut self, req_id: u64, item: u32, created: f64) {
        self.pending.push(PendingReq {
            req_id,
            item,
            created,
            queries: 0,
        });
    }

    /// Dispatch one delivered frame, its lists in `lists`.
    pub(crate) fn on_msg<S: Sink>(
        &mut self,
        ctx: &mut Ctx<'_, S>,
        from: u32,
        head: Decoded,
        lists: &Lists,
    ) {
        match head {
            Decoded::Advert { window } => self.on_advert(ctx, from, window, lists),
            Decoded::Request { window } => self.on_peer_request(ctx, from, window, &lists.items),
            Decoded::Fulfill { window } => self.on_fulfill(ctx, from, window, &lists.items),
            Decoded::Handoff {
                xfer,
                item,
                count,
                execute,
            } => self.on_handoff(ctx, from, xfer, item, count, execute),
            Decoded::Ack { xfer, consumed } => self.on_ack(ctx, from, xfer, consumed),
        }
    }

    fn on_advert<S: Sink>(&mut self, ctx: &mut Ctx<'_, S>, from: u32, window: u64, lists: &Lists) {
        let Some(ex) = self.exchanges.get_mut(&from) else {
            return; // stale: the window already closed here
        };
        if ex.window != window {
            return;
        }
        if ex.advert_seen {
            // Duplicate (fault or peer retry). The peer retrying its
            // advert usually means it lost ours — resend it, bounded.
            if ex.dup_resends < 3 {
                ex.dup_resends += 1;
                self.send_advert(ctx, from, window);
            }
            return;
        }
        ex.advert_seen = true;
        ex.peer_items.clone_from(&lists.items);
        if !ex.peer_items.is_sorted() {
            ex.peer_items.sort_unstable();
        }
        ex.peer_mandates.clone_from(&lists.mandates);

        // Query counting and request assembly: one advert = one meeting
        // with a cache-carrying peer, exactly the engine's per-contact
        // increment. Items the peer holds are requested (their counter
        // bumps by one at fulfillment); items it lacks count a query.
        for p in &mut self.pending {
            if ex.peer_items.binary_search(&p.item).is_ok() {
                ex.requested.push(p.item);
            } else {
                p.queries += 1;
            }
        }
        ex.requested.sort_unstable();
        ex.requested.dedup();
        if !ex.requested.is_empty() {
            let wants = &ex.requested;
            ctx.send(from, |buf| wire::encode_request(buf, window, wants));
        }

        // Mandate execution (§5.3's possession rule): for each pooled
        // item this node holds and the peer lacks, offer one copy.
        let mut cursor = None;
        while let Some(item) = next_key(&self.pool, cursor) {
            cursor = Some(item);
            let holds_here = ctx.state.caches.holds(self.id as usize, item);
            let holds_peer = self.peer_holds(from, item);
            if holds_here && !holds_peer && !self.xfer_in_flight(from, item) {
                self.start_xfer(ctx, from, item, 1, true);
            }
        }
        // Mandate routing toward replica holders.
        self.route_pool(ctx, from);
    }

    fn peer_holds(&self, peer: u32, item: u32) -> bool {
        self.exchanges
            .get(&peer)
            .map(|ex| ex.peer_items.binary_search(&item).is_ok())
            .unwrap_or(false)
    }

    fn peer_pool(&self, peer: u32, item: u32) -> u64 {
        self.exchanges
            .get(&peer)
            .and_then(|ex| {
                ex.peer_mandates
                    .iter()
                    .find(|&&(i, _)| i == item)
                    .map(|&(_, c)| c)
            })
            .unwrap_or(0)
    }

    fn xfer_in_flight(&self, peer: u32, item: u32) -> bool {
        self.escrow
            .values()
            .any(|x| x.peer == peer && x.item == item)
    }

    /// Give away the part of the pool the §5.3 split assigns to `peer`.
    ///
    /// Each side runs the engines' [`share`] independently from (its own
    /// pool, the peer's advertised pool); where they flip a coin, the
    /// deterministic tie-break here (the lower node id keeps an odd
    /// leftover) keeps the two computations consistent, so at most one
    /// direction transfers custody per item.
    fn route_pool<S: Sink>(&mut self, ctx: &mut Ctx<'_, S>, peer: u32) {
        // `route_item` changes only `item`'s entry, so the walk visits
        // the keys the pool held when it began.
        let mut cursor = None;
        while let Some(item) = next_key(&self.pool, cursor) {
            cursor = Some(item);
            self.route_item(ctx, peer, item);
        }
    }

    fn route_item<S: Sink>(&mut self, ctx: &mut Ctx<'_, S>, peer: u32, item: u32) {
        let mine = self.pool.get(&item).copied().unwrap_or(0);
        if mine == 0 || self.xfer_in_flight(peer, item) {
            return;
        }
        let theirs = self.peer_pool(peer, item);
        let cap = ctx.rules.mandate_cap();
        let total = (mine + theirs).min(cap);
        let me = self.id as usize;
        let holds_here = ctx.state.caches.holds(me, item);
        let holds_peer = self.peer_holds(peer, item);
        let sticky = ctx.state.sticky_owner[item as usize];
        let keep = share(
            total,
            holds_here,
            holds_peer,
            sticky == me,
            sticky == peer as usize,
            || self.id < peer,
        );
        if mine > keep {
            let give = mine - keep;
            self.start_xfer(ctx, peer, item, give, false);
        }
    }

    /// Escrow `count` mandates of `item` and send the handoff frame.
    fn start_xfer<S: Sink>(
        &mut self,
        ctx: &mut Ctx<'_, S>,
        peer: u32,
        item: u32,
        count: u64,
        execute: bool,
    ) {
        debug_assert!(count > 0);
        let Some(pool) = self.pool.get_mut(&item) else {
            return; // callers escrow only from a pooled item
        };
        debug_assert!(*pool >= count);
        *pool -= count;
        if *pool == 0 {
            self.pool.remove(&item);
        }
        let id = *ctx.next_xfer;
        *ctx.next_xfer += 1;
        self.escrow.insert(
            id,
            Xfer {
                peer,
                item,
                count,
                execute,
                attempts: 0,
                parked: false,
            },
        );
        ctx.stats.handoffs_started += 1;
        self.send_xfer(ctx, id);
    }

    /// (Re-)send an escrowed transfer and arm its retry timer.
    fn send_xfer<S: Sink>(&mut self, ctx: &mut Ctx<'_, S>, id: u64) {
        let Some(x) = self.escrow.get_mut(&id) else {
            return;
        };
        if x.parked {
            return;
        }
        x.attempts += 1;
        if x.attempts > MAX_ATTEMPTS {
            x.parked = true;
            ctx.stats.ack_timeouts += 1;
            ctx.rec.fault(ctx.t, "net_ack_timeout", self.id, x.peer);
            return;
        }
        let msg = Msg::MandateHandoff {
            xfer: id,
            item: x.item,
            count: x.count,
            execute: x.execute,
        };
        let (peer, attempts) = (x.peer, x.attempts);
        if attempts > 1 {
            ctx.stats.retries += 1;
        }
        ctx.send_msg(peer, &msg);
        let delay = self.backoff(attempts);
        ctx.timers
            .push((ctx.t + delay, Timer::XferRetry { xfer: id }));
    }

    /// Serve a peer's request list from the local cache.
    fn on_peer_request<S: Sink>(
        &mut self,
        ctx: &mut Ctx<'_, S>,
        from: u32,
        window: u64,
        wants: &[u32],
    ) {
        self.grants.clear();
        let me = self.id as usize;
        for &item in wants {
            if ctx.state.caches.holds(me, item) {
                // Serving counts as a use of this copy (LRU recency).
                ctx.state.caches.node_mut(me).touch(item);
                self.grants.push(item);
            }
        }
        let grants = &self.grants;
        ctx.send(from, |buf| wire::encode_fulfill(buf, window, grants));
    }

    /// Content arrived: settle matching pending requests, mint mandates
    /// (ψ of the final query count), and route the fresh mandates toward
    /// the node that just proved it holds the item — the engine performs
    /// exactly this mint-then-route inside the same meeting.
    fn on_fulfill<S: Sink>(
        &mut self,
        ctx: &mut Ctx<'_, S>,
        from: u32,
        window: u64,
        grants: &[u32],
    ) {
        if let Some(ex) = self.exchanges.get_mut(&from) {
            if ex.window == window {
                ex.fulfill_seen = true;
            }
        }
        for &item in grants {
            // Settling touches no pending request, so taking the matches
            // one by one settles them in the order they were pending.
            while let Some(i) = self.pending.iter().position(|p| p.item == item) {
                let p = self.pending.remove(i);
                let record = &mut ctx.registry[p.req_id as usize];
                if record.fulfilled || record.lost {
                    continue; // checkpoint zombie: welfare already booked
                }
                record.fulfilled = true;
                let wait = ctx.t - p.created;
                let gain = ctx.utility.h(wait);
                ctx.metrics.record_fulfillment(ctx.t, gain);
                ctx.rec
                    .fulfillment(ctx.t, self.id, item, wait, (p.queries + 1) as u32);
                self.mint(ctx, item, p.queries + 1);
            }
            // The granting peer certainly holds the item now.
            if let Some(ex) = self.exchanges.get_mut(&from) {
                if ex.window == window {
                    if let Err(pos) = ex.peer_items.binary_search(&item) {
                        ex.peer_items.insert(pos, item);
                    }
                }
            }
            self.route_item(ctx, from, item);
        }
    }

    /// Mint by the engines' rule, the conservation ledger recording what
    /// actually entered the pool.
    fn mint<S: Sink>(&mut self, ctx: &mut Ctx<'_, S>, item: u32, queries: u64) {
        ctx.ledger.minted +=
            ctx.rules
                .mint(&mut self.pool, item, queries, ctx.metrics, &mut self.rng);
    }

    /// Phase 1 receiver: apply idempotently, remember the decision, ack.
    fn on_handoff<S: Sink>(
        &mut self,
        ctx: &mut Ctx<'_, S>,
        from: u32,
        xfer: u64,
        item: u32,
        count: u64,
        execute: bool,
    ) {
        if let Some(&consumed) = self.applied.get(&xfer) {
            // Redelivery (duplicate frame or sender retry): same ack.
            ctx.send_msg(from, &Msg::MandateAck { xfer, consumed });
            return;
        }
        let me = self.id as usize;
        let consumed = if execute {
            if ctx.state.caches.holds(me, item) {
                0 // no rewriting: the mandate returns to the sender
            } else if ctx.state.replicate(item, me, &mut self.rng) {
                ctx.ledger.executed += 1;
                ctx.stats.execs_applied += 1;
                ctx.rec.replications(ctx.t, 1);
                1
            } else {
                0 // cache can't accept (all slots sticky)
            }
        } else {
            let cap = ctx.rules.mandate_cap();
            ctx.ledger.discarded += pool_add(&mut self.pool, item, count, cap);
            ctx.stats.handoffs_applied += 1;
            count // custody fully consumed (overflow destroyed here)
        };
        self.applied.insert(xfer, consumed);
        ctx.send_msg(from, &Msg::MandateAck { xfer, consumed });
    }

    /// Phase 2 sender: release the escrow; un-consumed mandates return
    /// to the pool.
    fn on_ack<S: Sink>(&mut self, ctx: &mut Ctx<'_, S>, _from: u32, xfer: u64, consumed: u64) {
        let Some(x) = self.escrow.remove(&xfer) else {
            return; // duplicate ack
        };
        ctx.stats.acks_received += 1;
        let returned = x.count.saturating_sub(consumed);
        if returned > 0 {
            let cap = ctx.rules.mandate_cap();
            ctx.ledger.discarded += pool_add(&mut self.pool, x.item, returned, cap);
        }
    }

    /// A node-local timer fired. `link_up` reports whether the link to
    /// the timer's peer is currently up (retries are pointless otherwise;
    /// the next contact re-drives everything).
    pub(crate) fn on_timer<S: Sink>(&mut self, ctx: &mut Ctx<'_, S>, timer: Timer, link_up: bool) {
        match timer {
            Timer::WindowRetry { peer, window } => {
                if !link_up {
                    return;
                }
                let Some(ex) = self.exchanges.get_mut(&peer) else {
                    return;
                };
                if ex.window != window || ex.retries >= 6 {
                    return;
                }
                let stalled_handshake = !ex.advert_seen;
                let stalled_fulfill = !ex.requested.is_empty() && !ex.fulfill_seen;
                if !stalled_handshake && !stalled_fulfill {
                    return; // exchange complete
                }
                ex.retries += 1;
                let attempts = ex.retries;
                ctx.stats.retries += 1;
                if stalled_handshake {
                    self.send_advert(ctx, peer, window);
                } else {
                    let wants = &ex.requested;
                    ctx.send(peer, |buf| wire::encode_request(buf, window, wants));
                }
                let delay = self.backoff(attempts);
                ctx.timers
                    .push((ctx.t + delay, Timer::WindowRetry { peer, window }));
            }
            Timer::XferRetry { xfer } => {
                let Some(x) = self.escrow.get(&xfer) else {
                    return; // acked
                };
                if x.parked {
                    return;
                }
                if link_up {
                    self.send_xfer(ctx, xfer);
                } else {
                    // Wait for the next contact; keep a slow timer armed
                    // so a reopened window inside a long gap still
                    // retries even without a fresh contact event.
                    let delay = RTO_CAP * (0.5 + self.rng.f64());
                    ctx.timers.push((ctx.t + delay, Timer::XferRetry { xfer }));
                }
            }
            // Heartbeat and Checkpoint bookkeeping live in the kernel.
            Timer::Heartbeat | Timer::Checkpoint => {}
        }
    }

    /// Snapshot volatile state (Checkpoint timer).
    pub(crate) fn checkpoint(&mut self) {
        self.ckpt_pending = self.pending.clone();
    }

    /// Crash: volatile state is lost. Returns the registry ids of
    /// pending requests that were *not* in the last checkpoint — those
    /// are gone for good and settle as unfulfilled at the horizon.
    pub(crate) fn crash(&mut self) -> Vec<u64> {
        self.alive = false;
        let lost: Vec<u64> = self
            .pending
            .iter()
            .filter(|p| !self.ckpt_pending.iter().any(|c| c.req_id == p.req_id))
            .map(|p| p.req_id)
            .collect();
        self.pending.clear();
        self.exchanges.clear();
        lost
    }

    /// Restart from the durable ledger plus the last volatile checkpoint.
    pub(crate) fn restart(&mut self) {
        self.alive = true;
        self.incarnation += 1;
        self.pending = self.ckpt_pending.clone();
        self.exchanges.clear();
    }

    /// Deadline budget: abandon pending requests older than `deadline`.
    /// Returns the abandoned registry ids.
    pub(crate) fn expire_deadline(&mut self, t: f64, deadline: f64) -> Vec<u64> {
        let mut expired = Vec::new();
        self.pending.retain(|p| {
            if t - p.created > deadline {
                expired.push(p.req_id);
                false
            } else {
                true
            }
        });
        expired
    }
}
