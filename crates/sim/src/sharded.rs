//! Intra-trial sharded engine: one trial spread over worker threads.
//!
//! The serial engine ([`crate::engine`]) processes one global event
//! sequence; at a million nodes and ~10⁹ contacts that single sequence
//! *is* the wall-clock bill. This module shards the population into
//! [`LOGICAL_SHARDS`] contiguous node blocks and splits each trial into
//! fixed-width **epochs** — each metrics bin subdivided so one epoch
//! spans roughly one per-node inter-meeting time `1/(μ(n−1))`, the
//! fastest timescale a pending request can resolve on. Within an epoch:
//!
//! 1. **boundary** — at bin starts the welfare snapshot is recorded on
//!    the summed per-shard replica counts; at every epoch boundary the
//!    cache-slot faults due by it fire, in schedule order, from one RNG;
//! 2. **phase A** — each shard independently processes its *intra-shard*
//!    contacts and its request arrivals, merged in time order, exactly
//!    like the serial event loop restricted to the block; the policy
//!    step of a meeting is the serial engine's, [`QcrRules`] — `Ends`
//!    implements [`MandateHost`] over the shard blocks the meeting
//!    touches — while the exchange stays the eager
//!    [`RequestArena::retain`] walk, for the reasons written there;
//! 3. **phase B** — the 120 *cross-shard* pair lanes run in 15 tournament
//!    rounds of 8 disjoint shard pairs (the circle method), so every lane
//!    gets exclusive access to its two shard states.
//!
//! ## The serial engine's rules, called
//!
//! The frame above is this engine's own; the rules it runs are the serial
//! engine's. [`validate_sharded`] is the config's node-free checks, this
//! engine's refusals, then its population checks. Placement is
//! [`PolicyKind::place`] on one [`SimState`], split into blocks after. A
//! block is a [`SimState`] too, so a copy is [`SimState::replicate`] and
//! a slot fault [`SimState::fail_cache_slot`], timed by the serial fault
//! model's clock. Gains are booked by [`Metrics`]' request, meeting and
//! settlement rules. What stays here: the schedule, the epochs, contact
//! admission per lane (no churn, a [`FaultRecord`] log) and the eager
//! exchange.
//!
//! ## Scheduling: every shard keeps its own clock
//!
//! Those 1 + 16 + 120 tasks per epoch form one canonical list
//! (`Task::at`); a trial is that list repeated once per epoch. Each
//! shard has a step counter, each task a step (boundary 0, phase A 1,
//! round `r` 2 + `r`, plus 17 per epoch). Workers claim list indices in
//! order and run a task once every shard it touches stands at the task's
//! step, then advance those shards by one. A shard therefore sees its
//! tasks in exactly the listed order whatever the thread count, and a
//! lane of round `r + 1` starts as soon as its two shards are through
//! round `r` — nothing waits for the other fourteen. Only the boundary,
//! which reads or writes every shard, waits for all sixteen.
//!
//! ## Determinism at any worker count
//!
//! The unit of scheduling is the **task** (a shard in phase A, a shard
//! pair in phase B), and every task owns its entire random state, forked
//! up front in a fixed order ([`crate::streams`]).
//! Worker threads only decide *when* a task runs, never *what* it
//! computes — the step counters fix the order of tasks on every shard,
//! and two tasks that share no shard share no mutable state. Metrics
//! fragments are merged and fault logs concatenated in fixed (shard,
//! then lane) order after the last epoch, so every output bit — welfare
//! series, fault log, event digest — is a pure function of
//! `(config, source, policy, seed)`, independent of `workers`. `tests::worker_counts_are_bit_identical` and the CI shard
//! gate enforce exactly that, fault injection included.
//!
//! The sharded trajectory is a *different* (equally valid) realization of
//! the same stochastic model than the serial engine's: contacts are
//! sampled per lane instead of globally (the superposition of the 136
//! independent lane Poisson processes is the global process), requests
//! per shard, and cross-shard meetings within an epoch observe the state
//! left by phase A of that epoch. Statistics agree; bits do not, and are
//! not required to — the bit-identity discipline of
//! `tests/fault_tolerance.rs` applies *across worker counts*, not across
//! engines.
//!
//! ## Memory at scale
//!
//! Per-lane contacts are sampled **streaming** — each lane keeps one
//! lookahead event plus a reused buffer of at most [`DEFAULT_BATCH`]
//! [`ContactEvent`]s, the form every other driver buffers too, so trace
//! memory is O(lanes), not O(contacts). Node state is the flat SoA
//! [`CacheArena`]/[`RequestArena`] split into per-shard blocks
//! (`split_into_blocks` moves, never copies, slot storage).
//!
//! ## Supported configurations
//!
//! Pure-P2P populations on homogeneous Poisson contact sources, with QCR
//! / Passive / Static policies, uniform demand profiles, and fault
//! injection minus churn. Everything else is rejected up front with
//! [`ConfigError::UnsupportedSharded`]; notably the validator never
//! materializes a population-sized demand profile (at 10⁶ nodes a
//! uniform profile matrix would dwarf the node state itself).

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use impatience_core::fnv::{fnv, FNV_OFFSET};
use impatience_core::rng::{AliasTable, Xoshiro256};
use impatience_core::types::SystemModel;
use impatience_core::utility::DelayUtility;
use impatience_traces::{pair_from_index, ContactEvent};

use crate::config::{ConfigError, ContactSource, SimConfig};
use crate::engine::{TrialOutcome, DEFAULT_BATCH};
use crate::faults::{GilbertChain, SlotFaultClock};
use crate::metrics::Metrics;
use crate::policy::qcr::Mandates;
use crate::policy::{Fulfillment, MandateHost, PolicyKind, Pool, QcrRules};
use crate::state::{CacheArena, CacheRef, RequestArena, SimState};
use crate::streams;

/// Number of logical shards, fixed regardless of worker count: tasks are
/// defined per logical shard, workers merely schedule them, which is what
/// makes every `--shards` value bit-identical by construction.
pub const LOGICAL_SHARDS: usize = 16;

/// Cross-shard lanes: one per unordered shard pair.
pub(crate) const CROSS_LANES: usize = LOGICAL_SHARDS * (LOGICAL_SHARDS - 1) / 2;

/// One injected fault, in the order the owning task observed it — the
/// sharded analogue of the recorder's fault events, kept as a plain
/// vector so the CI bit-identity gate can compare whole logs across
/// worker counts.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultRecord {
    /// Event time (minutes).
    pub time: f64,
    /// Fault kind (`"contact_drop"`, `"cache_fault"`, `"trace_truncated"`).
    pub kind: &'static str,
    /// Primary node involved.
    pub node: u32,
    /// Second node (drops) or lost item (cache faults).
    pub aux: u32,
}

/// Result of one sharded trial: the usual [`TrialOutcome`] plus the
/// artifacts the worker-count bit-identity gate compares.
#[derive(Clone, Debug)]
pub struct ShardedOutcome {
    /// Metrics, final replicas and label, exactly as the serial engine
    /// reports them.
    pub outcome: TrialOutcome,
    /// Every injected fault, concatenated in fixed (boundary, shard,
    /// lane) order.
    pub fault_log: Vec<FaultRecord>,
    /// FNV-1a digest over every processed meeting (time, pair,
    /// fulfillment count) and per-shard transmission totals, folded in
    /// fixed task order — a compact stand-in for "the full event trace is
    /// identical".
    pub event_digest: u64,
    /// Contacts processed (admitted) across all lanes.
    pub contacts_processed: u64,
}

/// Check that `(config, source, policy)` is valid and inside the sharded
/// engine's supported subset (see the module docs), without materializing
/// any population-sized state: the source's checks, the config's checks
/// that need no node count, this engine's refusals, then the config's
/// population checks.
pub fn validate_sharded(
    config: &SimConfig,
    source: &ContactSource,
    policy: &PolicyKind,
) -> Result<(), ConfigError> {
    let unsupported = |feature: &'static str| Err(ConfigError::UnsupportedSharded { feature });
    source.try_validate()?;
    config.check_setting()?;
    if !matches!(source, ContactSource::Homogeneous { .. }) {
        return unsupported("trace contact sources (only homogeneous Poisson)");
    }
    if matches!(policy, PolicyKind::HillClimb) {
        return unsupported("the hill-climbing baseline");
    }
    if config.dedicated_servers.is_some() {
        return unsupported("dedicated populations");
    }
    if !config.demand_shifts.is_empty() {
        return unsupported("demand shifts");
    }
    // Origins are sampled uniformly per shard; a non-uniform profile has
    // no per-shard factorization. The comparison below touches only the
    // *configured* profile's width — never `nodes` — so validating a
    // million-node run stays O(existing profile size).
    let uniform = impatience_core::demand::DemandProfile::uniform(
        config.items,
        config.profile.nodes().max(1),
    );
    if config.profile != uniform {
        return unsupported("non-uniform demand profiles");
    }
    if config.faults.as_ref().is_some_and(|f| f.churn.is_some()) {
        // Churn gates contacts on a *global* per-node up/down state;
        // a lane cannot know toggles scheduled by other lanes'
        // events without a cross-shard barrier per contact.
        return unsupported("server churn (drop/cache/truncation faults are supported)");
    }
    config.check_population(source.nodes())
}

/// The `(start, len)` node block of each logical shard: contiguous,
/// sizes differing by at most one (empty blocks when `nodes <
/// LOGICAL_SHARDS`).
fn shard_blocks(nodes: usize) -> Vec<(usize, usize)> {
    let base = nodes / LOGICAL_SHARDS;
    let extra = nodes % LOGICAL_SHARDS;
    let mut blocks = Vec::with_capacity(LOGICAL_SHARDS);
    let mut start = 0;
    for s in 0..LOGICAL_SHARDS {
        let len = base + usize::from(s < extra);
        blocks.push((start, len));
        start += len;
    }
    blocks
}

/// Index of the cross lane for shard pair `s < t` in lexicographic
/// order.
fn cross_index(s: usize, t: usize) -> usize {
    debug_assert!(s < t && t < LOGICAL_SHARDS);
    s * (2 * LOGICAL_SHARDS - s - 1) / 2 + (t - s - 1)
}

/// The 8 disjoint shard pairs of tournament round `round` (0..15),
/// each normalized to `s < t` — the circle method: shard 15 sits still,
/// the rest rotate, so across the 15 rounds every unordered pair occurs
/// exactly once (`tests::tournament_covers_every_pair_once`).
fn round_pairs(round: usize) -> [(usize, usize); LOGICAL_SHARDS / 2] {
    let m = LOGICAL_SHARDS - 1; // 15 rotating shards
    let mut pairs = [(0usize, 0usize); LOGICAL_SHARDS / 2];
    pairs[0] = (round % m, m);
    for (k, slot) in pairs.iter_mut().enumerate().skip(1) {
        let x = (round + k) % m;
        let y = (round + m - k) % m;
        *slot = (x.min(y), x.max(y));
    }
    pairs
}

/// Which node pairs one contact lane covers.
#[derive(Clone, Copy)]
enum LaneKind {
    /// All pairs within one block.
    Intra { start: usize, n: usize },
    /// All pairs between two blocks (`start_a` block precedes
    /// `start_b`'s, so sampled pairs are already normalized `a < b`).
    Cross {
        start_a: usize,
        n_a: usize,
        start_b: usize,
        n_b: usize,
    },
}

/// A streaming contact sampler for one lane, buffering up to a batch of
/// [`ContactEvent`]s ahead, with the lane's share of the fault model (the
/// Gilbert drop chain and trace truncation act per lane; cache faults
/// are global and live at the epoch boundary).
struct LaneContacts {
    rng: Xoshiro256,
    kind: LaneKind,
    /// Total Poisson rate of the lane (μ × pair count).
    rate: f64,
    duration: f64,
    t: f64,
    lookahead: Option<ContactEvent>,
    done: bool,
    /// Batch of upcoming events (≤ [`DEFAULT_BATCH`]), reused across
    /// refills — the lane's whole trace memory.
    buf: Vec<ContactEvent>,
    pos: usize,
    // Fault model.
    drop: Option<GilbertChain>,
    truncate_at: f64,
    truncation_reported: bool,
}

impl LaneContacts {
    fn new(
        kind: LaneKind,
        mu: f64,
        duration: f64,
        rng: Xoshiro256,
        drop: Option<GilbertChain>,
        truncate_at: f64,
    ) -> Self {
        let pairs = match kind {
            LaneKind::Intra { n, .. } => n * n.saturating_sub(1) / 2,
            LaneKind::Cross { n_a, n_b, .. } => n_a * n_b,
        };
        let mut lane = LaneContacts {
            rng,
            kind,
            rate: mu * pairs as f64,
            duration,
            t: 0.0,
            lookahead: None,
            done: false,
            buf: Vec::new(),
            pos: 0,
            drop,
            truncate_at,
            truncation_reported: false,
        };
        if lane.rate <= 0.0 {
            lane.done = true;
        } else {
            lane.advance();
        }
        lane
    }

    /// Sample the next event into `lookahead` (or mark the lane done).
    fn advance(&mut self) {
        if self.done {
            self.lookahead = None;
            return;
        }
        self.t += self.rng.exp(self.rate);
        if !self.t.is_finite() || self.t > self.duration {
            self.done = true;
            self.lookahead = None;
            return;
        }
        let (a, b) = match self.kind {
            LaneKind::Intra { start, n } => {
                let pairs = (n * (n - 1) / 2) as u64;
                let (la, lb) = pair_from_index(n, self.rng.below(pairs));
                (start as u32 + la, start as u32 + lb)
            }
            LaneKind::Cross {
                start_a,
                n_a,
                start_b,
                n_b,
            } => (
                (start_a + self.rng.index(n_a)) as u32,
                (start_b + self.rng.index(n_b)) as u32,
            ),
        };
        self.lookahead = Some(ContactEvent { time: self.t, a, b });
    }

    /// Refill the batch buffer with events strictly before `limit`.
    // Out of line, once per lane and epoch: with it inlined the
    // per-contact `peek_before` is too big to inline into the phase
    // loops, which costs a one-worker pinned trial at n = 10⁵ about 15 %
    // (20 alternating runs).
    #[inline(never)]
    fn refill(&mut self, limit: f64) {
        self.buf.clear();
        self.pos = 0;
        while self.buf.len() < DEFAULT_BATCH {
            match self.lookahead {
                Some(e) if e.time < limit => {
                    self.buf.push(e);
                    self.advance();
                }
                _ => break,
            }
        }
    }

    /// Next buffered event before `limit` without consuming it.
    fn peek_before(&mut self, limit: f64) -> Option<ContactEvent> {
        if self.pos == self.buf.len() {
            self.refill(limit);
        }
        self.buf.get(self.pos).copied()
    }

    /// Consume the next event before `limit`.
    fn next_before(&mut self, limit: f64) -> Option<ContactEvent> {
        let e = self.peek_before(limit)?;
        self.pos += 1;
        Some(e)
    }

    /// Fault admission for a sampled contact: truncation first, then one
    /// Gilbert transition per surviving contact — the serial
    /// `FaultState::admit_contact` restricted to this lane's chain.
    fn admit(&mut self, e: &ContactEvent, ctx: &mut TaskCtx) -> bool {
        if e.time > self.truncate_at {
            if !self.truncation_reported {
                self.truncation_reported = true;
                ctx.faults.push(FaultRecord {
                    time: self.truncate_at,
                    kind: "trace_truncated",
                    node: 0,
                    aux: 0,
                });
            }
            ctx.metrics.contacts_dropped += 1;
            return false;
        }
        if self.drop.as_mut().is_some_and(GilbertChain::step) {
            ctx.metrics.contacts_dropped += 1;
            ctx.faults.push(FaultRecord {
                time: e.time,
                kind: "contact_drop",
                node: e.a,
                aux: e.b,
            });
            return false;
        }
        true
    }
}

/// One shard's node-owned state: the block, pending requests and QCR
/// mandate pools, locally indexed.
#[derive(Clone)]
struct ShardState {
    /// The block's first node id.
    start: usize,
    /// The block's caches and their books — replica counts *within the
    /// block*, transmissions into it — kept by the serial engine's rules
    /// ([`SimState::replicate`], [`SimState::fail_cache_slot`]). Its own
    /// `sticky_owner` stays empty: the one table is `sticky_owner` below.
    block: SimState,
    mandates: Mandates,
    requests: RequestArena,
    /// Sticky-seed node of each item: fixed at seeding, the same
    /// (global, read-only) table on every shard.
    sticky_owner: Arc<[usize]>,
}

impl ShardState {
    /// The block from `start` whose (seeded) caches are `caches`:
    /// replicas counted, no mandates, no requests.
    fn new(start: usize, caches: CacheArena, items: usize, sticky_owner: Arc<[usize]>) -> Self {
        let len = caches.nodes();
        let mut replicas = vec![0u32; items];
        for cache in caches.iter() {
            for &item in cache.items() {
                replicas[item as usize] += 1;
            }
        }
        let mut requests = RequestArena::new();
        requests.reset(len);
        ShardState {
            start,
            block: SimState {
                caches,
                replicas,
                sticky_owner: Vec::new(),
                transmissions: 0,
            },
            mandates: Mandates::new(vec![Pool::new(); len]),
            requests,
            sticky_owner,
        }
    }
}

/// Per-task accumulators: everything a task writes that outlives it,
/// merged in fixed order after the trial.
struct TaskCtx {
    rng: Xoshiro256,
    metrics: Metrics,
    fulfilled: Vec<Fulfillment>,
    waits: Vec<f64>,
    gains: Vec<f64>,
    digest: u64,
    contacts: u64,
    faults: Vec<FaultRecord>,
}

impl TaskCtx {
    fn new(rng: Xoshiro256, duration: f64, bin: f64) -> Self {
        TaskCtx {
            rng,
            metrics: Metrics::new(duration, bin),
            fulfilled: Vec::new(),
            waits: Vec::new(),
            gains: Vec::new(),
            digest: FNV_OFFSET,
            contacts: 0,
            faults: Vec::new(),
        }
    }
}

/// A phase-A task: shard state plus its intra lane and request process.
struct Shard {
    state: ShardState,
    ctx: TaskCtx,
    contacts: LaneContacts,
    req_rng: Xoshiro256,
    req_rate: f64,
    next_request: f64,
}

/// A phase-B task: the cross lane of one shard pair (shard states are
/// lent to it for the round).
struct CrossLane {
    contacts: LaneContacts,
    ctx: TaskCtx,
}

/// Immutable per-trial context shared (read-only) by every task.
struct SimEnv {
    utility: Arc<dyn DelayUtility>,
    item_sampler: Option<AliasTable>,
    /// The protocol, for QCR and passive replication; `None` pins the
    /// allocation (meetings only fulfill).
    qcr: Option<QcrRules>,
}

/// The one or two shard states a meeting touches, with node-id-keyed
/// accessors so the meeting logic is written once for both phases (and
/// the protocol once for every engine: see the [`MandateHost`] impl).
enum Ends<'a> {
    One(&'a mut ShardState),
    /// Ordered: `.0`'s block precedes `.1`'s.
    Two(&'a mut ShardState, &'a mut ShardState),
}

impl Ends<'_> {
    fn state_of(&self, node: usize) -> &ShardState {
        match self {
            Ends::One(s) => s,
            Ends::Two(sa, sb) => {
                if node >= sb.start {
                    sb
                } else {
                    sa
                }
            }
        }
    }

    fn state_of_mut(&mut self, node: usize) -> &mut ShardState {
        match self {
            Ends::One(s) => s,
            Ends::Two(sa, sb) => {
                if node >= sb.start {
                    sb
                } else {
                    sa
                }
            }
        }
    }

    /// Node `n`'s pending requests and its block's first node id, with
    /// peer `m`'s cache.
    fn requests_and_peer(
        &mut self,
        n: usize,
        m: usize,
    ) -> (&mut RequestArena, usize, CacheRef<'_>) {
        let (sn, sm): (&mut ShardState, &ShardState) = match self {
            Ends::One(s) => {
                let s = &mut **s;
                return (&mut s.requests, s.start, s.block.caches.node(m - s.start));
            }
            Ends::Two(sa, sb) => {
                if n >= sb.start {
                    (sb, sa)
                } else {
                    (sa, sb)
                }
            }
        };
        (
            &mut sn.requests,
            sn.start,
            sm.block.caches.node(m - sm.start),
        )
    }

    /// Both-direction request fulfillment at a meeting, exactly as the
    /// serial exchange: pending requests of each side are walked in
    /// insertion order against the peer's cache (every node carries one:
    /// the population is pure P2P and ρ ≥ 1); misses increment query
    /// counters. The `created > time` guard skips requests the owning
    /// shard created *later in the epoch* than this cross-shard meeting
    /// — they do not exist yet at the meeting's own time.
    fn exchange(&mut self, time: f64, a: usize, b: usize, fulfilled: &mut Vec<Fulfillment>) {
        for (n, m) in [(a, b), (b, a)] {
            let (requests, start, cache_m) = self.requests_and_peer(n, m);
            requests.retain(n - start, |item, created, queries| {
                if created > time {
                    return true; // not yet created at this meeting's time
                }
                if !cache_m.holds(item) {
                    *queries += 1;
                    return true;
                }
                fulfilled.push(Fulfillment {
                    node: n,
                    item,
                    queries: *queries + 1,
                    wait: time - created,
                });
                false
            });
        }
    }

    /// LRU bookkeeping: serving a request counts as a use of the
    /// server's copy.
    fn touch(&mut self, node: usize, item: u32) {
        let s = self.state_of_mut(node);
        let local = node - s.start;
        s.block.caches.node_mut(local).touch(item);
    }
}

/// The protocol runs on shard blocks through these seven methods: pools
/// and their occupancy bits live on the shard states (so phase-A/B tasks
/// own them) and a copy is the owning block's [`SimState::replicate`].
impl MandateHost for Ends<'_> {
    fn holds(&self, node: usize, item: u32) -> bool {
        let s = self.state_of(node);
        s.block.caches.holds(node - s.start, item)
    }

    fn pool(&self, node: usize) -> &Pool {
        let s = self.state_of(node);
        &s.mandates.pools[node - s.start]
    }

    fn pool_mut(&mut self, node: usize) -> &mut Pool {
        let s = self.state_of_mut(node);
        let local = node - s.start;
        &mut s.mandates.pools[local]
    }

    fn has_mandates(&self, node: usize) -> bool {
        let s = self.state_of(node);
        s.mandates.has(node - s.start)
    }

    fn sync(&mut self, node: usize) {
        let s = self.state_of_mut(node);
        let local = node - s.start;
        s.mandates.sync(local);
    }

    fn replicate(&mut self, node: usize, item: u32, rng: &mut Xoshiro256) -> bool {
        let s = self.state_of_mut(node);
        let local = node - s.start;
        s.block.replicate(item, local, rng)
    }

    fn sticky_owner(&self, item: u32) -> usize {
        let (Ends::One(s) | Ends::Two(s, _)) = self;
        s.sticky_owner[item as usize]
    }
}

/// Process one admitted meeting: exchange, gains, then the policy step.
fn process_meeting(
    time: f64,
    a: usize,
    b: usize,
    ends: &mut Ends<'_>,
    ctx: &mut TaskCtx,
    env: &SimEnv,
) {
    ctx.contacts += 1;
    ctx.fulfilled.clear();
    ends.exchange(time, a, b, &mut ctx.fulfilled);
    for f in ctx.fulfilled.iter() {
        let server = if f.node == a { b } else { a };
        ends.touch(server, f.item);
    }
    ctx.metrics.record_meeting(
        time,
        env.utility.as_ref(),
        &ctx.fulfilled,
        &mut ctx.waits,
        &mut ctx.gains,
    );
    ctx.digest = fnv(
        fnv(fnv(fnv(ctx.digest, time.to_bits()), a as u64), b as u64),
        ctx.fulfilled.len() as u64,
    );
    if let Some(rules) = &env.qcr {
        rules.after_meeting(ends, a, b, &ctx.fulfilled, &mut ctx.metrics, &mut ctx.rng);
    }
}

/// Phase A for one shard: intra-shard contacts and request arrivals,
/// merged in time order (requests win ties, as in the serial loop),
/// strictly below `limit`.
fn run_phase_a(shard: &mut Shard, env: &SimEnv, limit: f64, duration: f64) {
    let _span = impatience_obs::span!("shard");
    loop {
        let ct = shard
            .contacts
            .peek_before(limit)
            .map_or(f64::INFINITY, |e| e.time);
        let rt = if shard.next_request < limit && shard.next_request <= duration {
            shard.next_request
        } else {
            f64::INFINITY
        };
        if !ct.is_finite() && !rt.is_finite() {
            break;
        }
        if rt <= ct {
            let sampler = env.item_sampler.as_ref().expect("arrivals imply demand");
            let item = sampler.sample(&mut shard.req_rng) as u32;
            let caches = &shard.state.block.caches;
            let local = shard.req_rng.index(caches.nodes());
            let hit = caches.holds(local, item);
            shard
                .ctx
                .metrics
                .record_request(rt, hit, env.utility.as_ref());
            if !hit {
                shard.state.requests.push(local, item, rt);
            }
            shard.next_request = rt + shard.req_rng.exp(shard.req_rate);
        } else {
            let e = shard.contacts.next_before(limit).expect("peeked above");
            if !shard.contacts.admit(&e, &mut shard.ctx) {
                continue;
            }
            let (a, b) = (e.a as usize, e.b as usize);
            let mut ends = Ends::One(&mut shard.state);
            process_meeting(e.time, a, b, &mut ends, &mut shard.ctx, env);
        }
    }
}

/// Phase B for one shard pair: drain the cross lane below `limit`.
fn run_phase_b(
    sa: &mut ShardState,
    sb: &mut ShardState,
    lane: &mut CrossLane,
    env: &SimEnv,
    limit: f64,
) {
    let _span = impatience_obs::span!("cross");
    while let Some(e) = lane.contacts.next_before(limit) {
        if !lane.contacts.admit(&e, &mut lane.ctx) {
            continue;
        }
        let (a, b) = (e.a as usize, e.b as usize);
        let mut ends = Ends::Two(sa, sb);
        process_meeting(e.time, a, b, &mut ends, &mut lane.ctx, env);
    }
}

/// Tasks of one epoch, in canonical order: the boundary, phase A of the
/// sixteen shards, then the eight lanes of each of the fifteen rounds.
const TASKS_PER_EPOCH: usize = 1 + LOGICAL_SHARDS + CROSS_LANES;

/// Steps a shard takes per epoch: the boundary, phase A, one lane per round.
const STEPS_PER_EPOCH: usize = 2 + (LOGICAL_SHARDS - 1);

/// One entry of an epoch's canonical task list.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Task {
    /// Snapshot and cache faults; reads or writes every shard.
    Boundary,
    /// Phase A of one shard.
    Intra(usize),
    /// The cross lane of shard pair `s < t`, in its tournament round.
    Cross { round: usize, s: usize, t: usize },
}

impl Task {
    /// The task at position `k < TASKS_PER_EPOCH` of the list.
    fn at(k: usize) -> Task {
        const LANES_PER_ROUND: usize = LOGICAL_SHARDS / 2;
        match k {
            0 => Task::Boundary,
            k if k <= LOGICAL_SHARDS => Task::Intra(k - 1),
            k => {
                let lane = k - 1 - LOGICAL_SHARDS;
                let round = lane / LANES_PER_ROUND;
                let (s, t) = round_pairs(round)[lane % LANES_PER_ROUND];
                Task::Cross { round, s, t }
            }
        }
    }

    /// The step, within its epoch, that every shard this task touches
    /// must stand at for the task to start.
    fn step(self) -> usize {
        match self {
            Task::Boundary => 0,
            Task::Intra(_) => 1,
            Task::Cross { round, .. } => 2 + round,
        }
    }

    fn touches(self, shard: usize) -> bool {
        match self {
            Task::Boundary => true,
            Task::Intra(s) => s == shard,
            Task::Cross { s, t, .. } => s == shard || t == shard,
        }
    }
}

/// Polls of a step counter before a waiting worker starts yielding its
/// time slice (the awaited task may need this core to finish).
const SPIN_POLLS: u32 = 128;

/// What the workers of one trial share: the position in the task list
/// and every shard's step counter.
///
/// It cannot deadlock: indices are claimed in order, every task a given
/// task waits for precedes it in the list, so the lowest unfinished
/// claimed task always finds its shards ready. And it cannot move a bit:
/// the counters admit, on each shard, exactly the listed order.
struct Schedule {
    tasks: usize,
    next: AtomicUsize,
    steps: [AtomicUsize; LOGICAL_SHARDS],
    /// Raised when a task unwinds: its shards never advance, so every
    /// worker must stop waiting for them.
    failed: AtomicBool,
}

impl Schedule {
    /// One worker: claim, wait, run, advance, until the list is done or
    /// a task (here or on another worker) has panicked.
    fn work(&self, run: &(impl Fn(usize, Task) + Sync)) {
        struct FailOnUnwind<'a>(&'a AtomicBool);
        impl Drop for FailOnUnwind<'_> {
            fn drop(&mut self) {
                if std::thread::panicking() {
                    self.0.store(true, Ordering::Relaxed);
                }
            }
        }
        let _guard = FailOnUnwind(&self.failed);
        loop {
            // Relaxed: the index publishes nothing; task state is handed
            // over through the step counters below.
            let index = self.next.fetch_add(1, Ordering::Relaxed);
            if index >= self.tasks {
                return;
            }
            let (epoch, task) = (index / TASKS_PER_EPOCH, Task::at(index % TASKS_PER_EPOCH));
            let step = epoch * STEPS_PER_EPOCH + task.step();
            let touched = || (0..LOGICAL_SHARDS).filter(|&s| task.touches(s));
            for s in touched() {
                if !self.await_step(s, step) {
                    return;
                }
            }
            run(epoch, task);
            // Release, paired with the Acquire in `await_step`: the next
            // task on this shard sees everything this one wrote.
            for s in touched() {
                self.steps[s].store(step + 1, Ordering::Release);
            }
        }
    }

    /// Wait until `shard` stands at `step`; `false` if the trial failed.
    fn await_step(&self, shard: usize, step: usize) -> bool {
        let mut polls = 0;
        loop {
            if self.failed.load(Ordering::Relaxed) {
                return false;
            }
            if self.steps[shard].load(Ordering::Acquire) == step {
                return true;
            }
            if polls < SPIN_POLLS {
                polls += 1;
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
    }
}

/// Lock state that the step counters have already made this task's
/// alone; contention here is a scheduling bug, not something to wait out.
fn own<T>(slot: &Mutex<T>) -> MutexGuard<'_, T> {
    slot.try_lock()
        .expect("the step counters give each task exclusive access to its state")
}

/// What only the boundary task touches: the trial-level metrics
/// (snapshots, cache-fault count), the cache-fault clock and its log.
/// The clock is the serial engine's, driven serially here: a global
/// process cannot be owned by any one task.
struct BoundaryState {
    metrics: Metrics,
    faults: Vec<FaultRecord>,
    clock: Option<SlotFaultClock>,
    replica_sum: Vec<u32>,
}

/// Run one sharded trial. `workers` is the number of OS threads (the
/// caller included, at most [`LOGICAL_SHARDS`]) that execute the fixed
/// task list; any value produces bit-identical output (see the module
/// docs).
///
/// # Errors
/// [`ConfigError`] when the configuration is outside the supported
/// subset ([`validate_sharded`]).
///
/// # Panics
/// Panics for trial seeds listed in `FaultConfig::panic_on_seeds`
/// (the chaos hook), exactly like the serial engine; a panic inside a
/// task (a user-supplied utility, say) is re-raised on the caller.
pub fn run_trial_sharded(
    config: &SimConfig,
    source: &ContactSource,
    policy: PolicyKind,
    seed: u64,
    workers: usize,
) -> Result<ShardedOutcome, ConfigError> {
    validate_sharded(config, source, &policy)?;
    let _trial_span = impatience_obs::span!("sharded_trial");
    let (nodes, mu, duration) = match source {
        ContactSource::Homogeneous {
            nodes,
            mu,
            duration,
        } => (*nodes, *mu, *duration),
        ContactSource::Trace(_) => unreachable!("validated"),
    };
    let (items, rho, bin) = (config.items, config.rho, config.bin);
    let faults = config.faults.as_ref().and_then(|f| f.for_trial(seed));
    let blocks = shard_blocks(nodes);

    // Every task's streams fork up front ([`streams`]); a lane's drop
    // stream forks whether or not drops are on.
    let mut rngs = streams::sharded(seed, faults.map(|f| f.seed));
    let drop = faults.and_then(|f| f.drop);
    let chain = |rng: Option<Xoshiro256>| drop.zip(rng).map(|(d, rng)| GilbertChain::new(d, rng));
    let cache_clock = faults
        .zip(rngs.cache_faults)
        .map(|(f, rng)| SlotFaultClock::new(f.cache, nodes, rng));
    let truncate_at = faults
        .and_then(|f| f.truncate_fraction)
        .map_or(f64::INFINITY, |x| x * duration);

    // ---- global state init (serial), then split into shard blocks ----
    let mut global = SimState::new(nodes, items, rho);
    global.set_eviction(config.eviction);
    policy.place(&mut global, &mut rngs.placement);
    let qcr = policy
        .qcr_config()
        .map(|cfg| QcrRules::for_trial(cfg, config, nodes, mu));
    let SimState {
        caches,
        sticky_owner,
        ..
    } = global;
    let sticky_owner: Arc<[usize]> = sticky_owner.into();
    let sizes: Vec<usize> = blocks.iter().map(|&(_, len)| len).collect();
    let arenas = caches.split_into_blocks(&sizes);

    let total_rate = config.demand.total();
    let env = SimEnv {
        utility: config.utility.clone(),
        item_sampler: (total_rate > 0.0).then(|| AliasTable::new(config.demand.rates())),
        qcr,
    };

    // ---- build tasks ----
    let mut shards: Vec<Mutex<Shard>> = Vec::with_capacity(LOGICAL_SHARDS);
    let mut tasks = rngs.tasks.into_iter();
    let shard_tasks = tasks.by_ref().take(LOGICAL_SHARDS).zip(rngs.requests);
    for ((arena, &(start, len)), (task, mut req_rng)) in
        arenas.into_iter().zip(&blocks).zip(shard_tasks)
    {
        let req_rate = if nodes > 0 {
            total_rate * len as f64 / nodes as f64
        } else {
            0.0
        };
        let next_request = if req_rate > 0.0 {
            req_rng.exp(req_rate)
        } else {
            f64::INFINITY
        };
        shards.push(Mutex::new(Shard {
            state: ShardState::new(start, arena, items, sticky_owner.clone()),
            ctx: TaskCtx::new(task.policy, duration, bin),
            contacts: LaneContacts::new(
                LaneKind::Intra { start, n: len },
                mu,
                duration,
                task.contacts,
                chain(task.drops),
                truncate_at,
            ),
            req_rng,
            req_rate,
            next_request,
        }));
    }
    // Lanes in `cross_index` order: (0, 1), (0, 2), …, (14, 15).
    let pairs = (0..LOGICAL_SHARDS).flat_map(|s| (s + 1..LOGICAL_SHARDS).map(move |t| (s, t)));
    let lanes: Vec<Mutex<CrossLane>> = pairs
        .zip(tasks)
        .map(|((s, t), task)| {
            Mutex::new(CrossLane {
                contacts: LaneContacts::new(
                    LaneKind::Cross {
                        start_a: blocks[s].0,
                        n_a: blocks[s].1,
                        start_b: blocks[t].0,
                        n_b: blocks[t].1,
                    },
                    mu,
                    duration,
                    task.contacts,
                    chain(task.drops),
                    truncate_at,
                ),
                ctx: TaskCtx::new(task.policy, duration, bin),
            })
        })
        .collect();

    // ---- epochs ----
    // The exchange epoch must be short against the fastest dynamics a
    // request sees — the per-node meeting process, rate μ(n−1) — because
    // within one epoch phase A (intra) is processed before phase B
    // (cross) regardless of event times, so waits can be mis-ordered by
    // up to one epoch width. Subdividing each metrics bin so an epoch
    // spans about one per-node inter-meeting time keeps that reordering
    // error far below typical fulfillment delays; the cap bounds
    // scheduling overhead when μ·n·bin is huge.
    let epochs_per_bin =
        ((bin * mu * nodes.saturating_sub(1) as f64).ceil() as usize).clamp(1, 256);
    let epoch_width = bin / epochs_per_bin as f64;
    let epoch_start = |epoch: usize| {
        (epoch / epochs_per_bin) as f64 * bin + (epoch % epochs_per_bin) as f64 * epoch_width
    };
    // The last epoch is the last one to start before the horizon (its
    // limit is ∞, so it drains every lane): the rest of a final partial
    // bin holds no event, and a cache fault dated past `duration` must
    // not fire, as it never does in the serial engine.
    let mut total_epochs = (duration / bin).ceil() as usize * epochs_per_bin;
    while total_epochs > 0 && epoch_start(total_epochs - 1) >= duration {
        total_epochs -= 1;
    }
    let snapshot_system = (mu > 0.0).then(|| SystemModel::pure_p2p(nodes, rho, mu));
    let boundary = Mutex::new(BoundaryState {
        metrics: Metrics::new(duration, bin),
        faults: Vec::new(),
        clock: cache_clock,
        replica_sum: vec![0u32; items],
    });
    let run = |epoch: usize, task: Task| {
        let limit = if epoch + 1 == total_epochs {
            f64::INFINITY
        } else {
            epoch_start(epoch + 1)
        };
        match task {
            Task::Boundary => {
                let now = epoch_start(epoch);
                let BoundaryState {
                    metrics,
                    faults,
                    clock,
                    replica_sum,
                } = &mut *own(&boundary);
                // At bin starts, snapshot on the summed replicas (the
                // state every lane left at the end of the previous
                // epoch); at every boundary, the global cache faults
                // due by it.
                if let Some(system) = snapshot_system
                    .as_ref()
                    .filter(|_| epoch.is_multiple_of(epochs_per_bin))
                {
                    let _span = impatience_obs::span!("snapshot");
                    replica_sum.iter_mut().for_each(|r| *r = 0);
                    for sh in &shards {
                        for (i, &r) in own(sh).state.block.replicas.iter().enumerate() {
                            replica_sum[i] += r;
                        }
                    }
                    metrics.record_snapshot(
                        now,
                        replica_sum,
                        system,
                        &config.demand,
                        config.utility.as_ref(),
                    );
                }
                if let Some(clock) = clock {
                    while let Some((when, node, rng)) = clock.due(now) {
                        let s = blocks.partition_point(|&(start, _)| start <= node) - 1;
                        let state = &mut own(&shards[s]).state;
                        if let Some(item) = state.block.fail_cache_slot(node - state.start, rng) {
                            metrics.cache_faults += 1;
                            faults.push(FaultRecord {
                                time: when,
                                kind: "cache_fault",
                                node: node as u32,
                                aux: item,
                            });
                        }
                    }
                }
            }
            Task::Intra(s) => run_phase_a(&mut own(&shards[s]), &env, limit, duration),
            Task::Cross { s, t, .. } => {
                let (mut sa, mut sb) = (own(&shards[s]), own(&shards[t]));
                let mut lane = own(&lanes[cross_index(s, t)]);
                run_phase_b(&mut sa.state, &mut sb.state, &mut lane, &env, limit);
            }
        }
    };
    // One worker set for the whole trial, the caller among them. More
    // than sixteen could never all hold a shard.
    let schedule = Schedule {
        tasks: total_epochs * TASKS_PER_EPOCH,
        next: AtomicUsize::new(0),
        steps: std::array::from_fn(|_| AtomicUsize::new(0)),
        failed: AtomicBool::new(false),
    };
    std::thread::scope(|scope| {
        let helpers: Vec<_> = (1..workers.clamp(1, LOGICAL_SHARDS))
            .map(|_| scope.spawn(|| schedule.work(&run)))
            .collect();
        schedule.work(&run);
        for helper in helpers {
            // Re-raise a task's own panic, not the scope's summary of it.
            if let Err(panic) = helper.join() {
                std::panic::resume_unwind(panic);
            }
        }
    });

    // ---- settlement and fixed-order reduction ----
    let _settle_span = impatience_obs::span!("settle");
    let BoundaryState {
        mut metrics,
        faults: mut fault_log,
        ..
    } = boundary
        .into_inner()
        .expect("a panicking task has ended the trial above");
    let mut final_replicas = vec![0u32; items];
    let mut event_digest = FNV_OFFSET;
    let mut contacts_processed = 0;
    for sh in &shards {
        let sh = &mut *own(sh);
        sh.ctx.metrics.unfulfilled = sh.state.requests.len();
        for (_, _, created) in sh.state.requests.iter() {
            sh.ctx
                .metrics
                .settle(duration, config.utility.as_ref(), duration - created);
        }
        let block = &sh.state.block;
        sh.ctx.metrics.transmissions = block.transmissions;
        metrics.merge(&sh.ctx.metrics);
        for (i, &r) in block.replicas.iter().enumerate() {
            final_replicas[i] += r;
        }
        event_digest = fnv(fnv(event_digest, sh.ctx.digest), block.transmissions);
        contacts_processed += sh.ctx.contacts;
        fault_log.append(&mut sh.ctx.faults);
    }
    for lane in &lanes {
        let lane = &mut *own(lane);
        metrics.merge(&lane.ctx.metrics);
        event_digest = fnv(event_digest, lane.ctx.digest);
        contacts_processed += lane.ctx.contacts;
        fault_log.append(&mut lane.ctx.faults);
    }

    Ok(ShardedOutcome {
        outcome: TrialOutcome {
            metrics,
            final_replicas,
            label: policy.label(),
        },
        fault_log,
        event_digest,
        contacts_processed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{CacheFaults, Churn, ContactDrop, FaultConfig};
    use impatience_core::demand::Popularity;
    use impatience_core::prelude::uniform;
    use impatience_core::utility::Step;

    fn small_config(items: usize, rho: usize) -> SimConfig {
        SimConfig::builder(items, rho)
            .demand(Popularity::pareto(items, 1.0).demand_rates(0.5))
            .utility(Arc::new(Step::new(10.0)))
            .bin(100.0)
            .build()
    }

    fn faulty_config(items: usize, rho: usize) -> SimConfig {
        SimConfig::builder(items, rho)
            .demand(Popularity::pareto(items, 1.0).demand_rates(0.5))
            .utility(Arc::new(Step::new(10.0)))
            .bin(100.0)
            .faults(FaultConfig {
                seed: 9,
                drop: Some(ContactDrop {
                    p: 0.2,
                    mean_burst: 2.0,
                }),
                cache: Some(CacheFaults { rate: 0.002 }),
                truncate_fraction: Some(0.9),
                ..FaultConfig::default()
            })
            .build()
    }

    #[test]
    fn tournament_covers_every_pair_once() {
        let mut seen = vec![0u32; CROSS_LANES];
        for round in 0..LOGICAL_SHARDS - 1 {
            let pairs = round_pairs(round);
            let mut used = [false; LOGICAL_SHARDS];
            for (s, t) in pairs {
                assert!(s < t && t < LOGICAL_SHARDS, "({s},{t})");
                assert!(!used[s] && !used[t], "round {round} reuses a shard");
                used[s] = true;
                used[t] = true;
                seen[cross_index(s, t)] += 1;
            }
        }
        assert!(seen.iter().all(|&c| c == 1), "{seen:?}");
    }

    #[test]
    fn task_list_gives_every_shard_its_steps_in_order() {
        // Two epochs of the canonical list: each shard meets, per epoch,
        // the boundary, its phase A, then its lane of rounds 0…14, at
        // consecutive steps; each of the 120 lanes occurs once per epoch.
        let mut clock = [0usize; LOGICAL_SHARDS];
        let mut lanes_seen = vec![0u32; CROSS_LANES];
        for index in 0..2 * TASKS_PER_EPOCH {
            let (epoch, task) = (index / TASKS_PER_EPOCH, Task::at(index % TASKS_PER_EPOCH));
            let touched: Vec<usize> = (0..LOGICAL_SHARDS).filter(|&s| task.touches(s)).collect();
            match task {
                Task::Boundary => assert_eq!(touched.len(), LOGICAL_SHARDS),
                Task::Intra(s) => assert_eq!(touched, [s]),
                Task::Cross { s, t, .. } => {
                    assert_eq!(touched, [s, t]);
                    lanes_seen[cross_index(s, t)] += 1;
                }
            }
            for s in touched {
                assert_eq!(
                    clock[s],
                    epoch * STEPS_PER_EPOCH + task.step(),
                    "{task:?} is out of turn on shard {s}"
                );
                clock[s] += 1;
            }
        }
        assert_eq!(clock, [2 * STEPS_PER_EPOCH; LOGICAL_SHARDS]);
        assert!(lanes_seen.iter().all(|&c| c == 2), "{lanes_seen:?}");
    }

    #[test]
    fn blocks_partition_the_population() {
        for nodes in [0, 1, 5, 16, 17, 100, 1013] {
            let blocks = shard_blocks(nodes);
            assert_eq!(blocks.len(), LOGICAL_SHARDS);
            assert_eq!(blocks.iter().map(|b| b.1).sum::<usize>(), nodes);
            let mut expect = 0;
            for &(start, len) in &blocks {
                assert_eq!(start, expect);
                expect += len;
            }
            let (min, max) = blocks
                .iter()
                .fold((usize::MAX, 0), |(lo, hi), b| (lo.min(b.1), hi.max(b.1)));
            assert!(max - min <= 1, "uneven blocks for {nodes}: {blocks:?}");
        }
    }

    /// `state`'s caches and `pools` split into shard blocks of `blocks`
    /// nodes each.
    fn shards_of(state: SimState, pools: &[Pool], blocks: &[usize]) -> Vec<ShardState> {
        let (items, sticky): (usize, Arc<[usize]>) = (state.items(), state.sticky_owner.into());
        let mut start = 0;
        state
            .caches
            .split_into_blocks(blocks)
            .into_iter()
            .zip(blocks)
            .map(|(arena, &len)| {
                let mut shard = ShardState::new(start, arena, items, sticky.clone());
                shard.mandates = Mandates::new(pools[start..start + len].to_vec());
                start += len;
                shard
            })
            .collect()
    }

    /// Every node's cached items and pool, in node order.
    type Held = (Vec<Vec<u32>>, Vec<Pool>);

    /// Every node's caches and pools, owned, lent out as a [`MandateHost`]
    /// one meeting at a time.
    trait World: Clone {
        type Host<'a>: MandateHost
        where
            Self: 'a;
        fn host(&mut self) -> Self::Host<'_>;
        fn left(&self) -> Held;
    }

    #[derive(Clone)]
    struct Serial(SimState, Mandates);

    impl World for Serial {
        type Host<'a> = crate::policy::qcr::SerialHost<'a>;
        fn host(&mut self) -> Self::Host<'_> {
            crate::policy::qcr::SerialHost {
                state: &mut self.0,
                mandates: &mut self.1,
            }
        }
        fn left(&self) -> Held {
            let caches = self.0.caches.iter().map(|c| c.items().to_vec()).collect();
            (caches, self.1.pools.clone())
        }
    }

    impl World for Vec<ShardState> {
        type Host<'a> = Ends<'a>;
        fn host(&mut self) -> Ends<'_> {
            match self.as_mut_slice() {
                [one] => Ends::One(one),
                [sa, sb] => Ends::Two(sa, sb),
                _ => unreachable!("one block or two"),
            }
        }
        fn left(&self) -> Held {
            let caches = self.iter().flat_map(|sh| {
                let caches = &sh.block.caches;
                caches.iter().map(|c| c.items().to_vec())
            });
            let pools = self.iter().flat_map(|sh| sh.mandates.pools.clone());
            (caches.collect(), pools.collect())
        }
    }

    #[test]
    fn hosts_agree() {
        // One meeting of nodes 0 and 1 — a mint, a copy each way (each
        // evicting at random), a sticky 2/3 split, an odd split settled by
        // the coin, a mandate stalled for want of the item — then one of
        // nodes 2 and 3, nothing fulfilled and both pools empty (the step
        // skipped), hosted three ways: on one `SimState` through the
        // serial host, on one shard block, and across two blocks through
        // `Ends`, each answering the seven `MandateHost` methods.
        use crate::policy::{QcrConfig, Reaction};
        let rules = QcrRules::new(
            QcrConfig {
                reaction: Reaction::Constant(2.5),
                ..QcrConfig::default()
            },
            Arc::new(Step::new(10.0)),
            2,
            0.05,
            6,
            3,
        );
        let seeded = || {
            let mut state = SimState::new(4, 6, 3);
            for (node, sticky, others) in [(0, 0, [1, 2]), (1, 3, [0, 2])] {
                state.caches.node_mut(node).pin_sticky(sticky);
                state.sticky_owner[sticky as usize] = node;
                for item in others {
                    assert!(state.caches.node_mut(node).fill(item));
                }
                for item in others.into_iter().chain([sticky]) {
                    state.replicas[item as usize] += 1;
                }
            }
            for (node, item) in [(2, 4), (2, 5), (3, 1)] {
                assert!(state.caches.node_mut(node).fill(item));
                state.replicas[item as usize] += 1;
            }
            let pools = vec![
                Pool::from([(0, 3), (1, 2), (2, 5), (4, 3)]),
                Pool::from([(0, 2), (3, 1)]),
                Pool::new(),
                Pool::new(),
            ];
            (state, pools)
        };
        /// Both meetings on `world`, and what they leave behind: caches
        /// and pools, metrics, and the RNG's next draw.
        fn meet<W: World>(rules: &QcrRules, world: &mut W) -> (Held, String, u64) {
            let fulfilled = [Fulfillment {
                node: 1,
                item: 1,
                queries: 4,
                wait: 2.0,
            }];
            let mut metrics = Metrics::new(100.0, 10.0);
            let mut rng = Xoshiro256::seed_from_u64(77);
            rules.after_meeting(&mut world.host(), 0, 1, &fulfilled, &mut metrics, &mut rng);
            rules.after_meeting(&mut world.host(), 2, 3, &[], &mut metrics, &mut rng);
            (world.left(), format!("{metrics:?}"), rng.next_u64())
        }

        let (state, pools) = seeded();
        let mut serial = Serial(state, Mandates::new(pools));
        let left = meet(&rules, &mut serial);
        let ((_, pools), _, _) = &left;
        assert!(serial.0.transmissions >= 2, "a copy each way");
        assert_eq!(pools[0][&4] + pools[1][&4], 3, "stalled, then split");
        assert!(pools[2].is_empty() && pools[3].is_empty());
        let serial = (left, serial.0.replicas, serial.0.transmissions);

        for blocks in [vec![4], vec![1, 3]] {
            let (state, pools) = seeded();
            let mut shards = shards_of(state, &pools, &blocks);
            let left = meet(&rules, &mut shards);
            let mut replicas = vec![0u32; 6];
            for shard in &shards {
                for (sum, r) in replicas.iter_mut().zip(&shard.block.replicas) {
                    *sum += r;
                }
            }
            let transmissions = shards.iter().map(|sh| sh.block.transmissions).sum();
            let sharded = (left, replicas, transmissions);
            assert_eq!(sharded, serial, "shard blocks {blocks:?}");
        }
    }

    /// `MEETINGS` random meetings of `nodes` nodes through
    /// [`QcrRules::after_meeting`] on `world`. Every step leaves what the
    /// full step — mint, execute both ways, route — leaves on a clone:
    /// the same caches, pools, metrics and next draw, skipped or not; and
    /// after it each occupancy bit says whether its pool holds anything.
    /// Returns what the world is left with, the next draw, and how many
    /// steps met the skip condition.
    fn random_meetings<W: World>(mut world: W, nodes: usize, items: usize) -> (Held, u64, usize) {
        use crate::policy::{QcrConfig, Reaction};
        const MEETINGS: usize = 2_000;
        let rules = QcrRules::new(
            QcrConfig {
                reaction: Reaction::Constant(1.5),
                mandate_cap: 4,
                ..QcrConfig::default()
            },
            Arc::new(Step::new(10.0)),
            nodes,
            0.05,
            items,
            2,
        );
        let mut meetings = Xoshiro256::seed_from_u64(41);
        let mut rng = Xoshiro256::seed_from_u64(42);
        let mut metrics = Metrics::new(100.0, 10.0);
        let mut skipped = 0;
        for step in 0..MEETINGS {
            let a = meetings.index(nodes);
            let b = (a + 1 + meetings.index(nodes - 1)) % nodes;
            let fulfilled: Vec<Fulfillment> = (0..usize::from(meetings.bernoulli(0.05)))
                .map(|_| Fulfillment {
                    node: if meetings.bernoulli(0.5) { a } else { b },
                    item: meetings.index(items) as u32,
                    queries: meetings.index(4) as u64,
                    wait: 1.0,
                })
                .collect();
            let full_step = {
                let (mut world, mut rng, mut metrics) =
                    (world.clone(), rng.clone(), metrics.clone());
                let mut host = world.host();
                if fulfilled.is_empty() && !host.has_mandates(a) && !host.has_mandates(b) {
                    skipped += 1;
                }
                for f in &fulfilled {
                    let pool = host.pool_mut(f.node);
                    rules.mint(pool, f.item, f.queries, &mut metrics, &mut rng);
                }
                rules.execute(&mut host, a, b, &mut rng);
                rules.execute(&mut host, b, a, &mut rng);
                rules.route(&mut host, a, b, &mut rng);
                drop(host);
                (world.left(), format!("{metrics:?}"), rng.next_u64())
            };
            rules.after_meeting(&mut world.host(), a, b, &fulfilled, &mut metrics, &mut rng);
            let after = (world.left(), format!("{metrics:?}"), rng.clone().next_u64());
            assert_eq!(after, full_step, "meeting {step}: not the full step");
            let host = world.host();
            for n in 0..nodes {
                let held = !host.pool(n).is_empty();
                assert_eq!(host.has_mandates(n), held, "meeting {step}, node {n}");
            }
        }
        (world.left(), rng.next_u64(), skipped)
    }

    #[test]
    fn occupancy_bits_follow_the_pools_and_the_skip_changes_nothing() {
        // Random caches, a third of the pools holding mandates to start,
        // random fulfillments and constant-reaction mints: the serial
        // host, one shard block and two all keep their bits right, skip
        // only steps that would do nothing, and end in the same place.
        let (nodes, items) = (8, 12);
        let seeded = || {
            let mut rng = Xoshiro256::seed_from_u64(40);
            let mut state = SimState::new(nodes, items, 2);
            PolicyKind::qcr_default().place(&mut state, &mut rng);
            let pools: Vec<Pool> = (0..nodes)
                .map(|_| {
                    let mut pool = Pool::new();
                    if rng.bernoulli(1.0 / 3.0) {
                        pool.insert(rng.index(items) as u32, 1 + rng.index(4) as u64);
                    }
                    pool
                })
                .collect();
            (state, pools)
        };
        let (state, pools) = seeded();
        let serial = random_meetings(Serial(state, Mandates::new(pools)), nodes, items);
        let skipped = serial.2;
        assert!(
            (100..1_900).contains(&skipped),
            "both paths must be exercised: {skipped} skipped"
        );
        for blocks in [vec![8], vec![3, 5]] {
            let (state, pools) = seeded();
            let shards = shards_of(state, &pools, &blocks);
            assert_eq!(random_meetings(shards, nodes, items), serial, "{blocks:?}");
        }
    }

    #[test]
    fn worker_counts_are_bit_identical() {
        // The tentpole gate: same seed, 1/2/8 workers, fault injection on
        // — every artifact must match bit for bit.
        let config = faulty_config(10, 2);
        let source = ContactSource::homogeneous(48, 0.02, 1_000.0);
        let runs: Vec<ShardedOutcome> = [1usize, 2, 8]
            .iter()
            .map(|&w| run_trial_sharded(&config, &source, PolicyKind::qcr_default(), 7, w).unwrap())
            .collect();
        for r in &runs[1..] {
            assert_eq!(r.event_digest, runs[0].event_digest);
            assert_eq!(r.fault_log, runs[0].fault_log);
            assert_eq!(r.contacts_processed, runs[0].contacts_processed);
            assert_eq!(r.outcome.final_replicas, runs[0].outcome.final_replicas);
            let (a, b) = (&r.outcome.metrics, &runs[0].outcome.metrics);
            assert_eq!(a.observed_rate_series(), b.observed_rate_series());
            assert_eq!(a.expected_utility_series(), b.expected_utility_series());
            assert_eq!(a.requests_created, b.requests_created);
            assert_eq!(a.transmissions, b.transmissions);
            assert_eq!(a.contacts_dropped, b.contacts_dropped);
            assert_eq!(a.cache_faults, b.cache_faults);
            assert_eq!(a.unfulfilled, b.unfulfilled);
        }
        assert!(runs[0].outcome.metrics.contacts_dropped > 0, "drops active");
        assert!(!runs[0].fault_log.is_empty(), "faults recorded");
    }

    #[test]
    fn deterministic_per_seed_and_seed_sensitive() {
        let config = small_config(10, 2);
        let source = ContactSource::homogeneous(40, 0.03, 1_000.0);
        let a = run_trial_sharded(&config, &source, PolicyKind::qcr_default(), 3, 2).unwrap();
        let b = run_trial_sharded(&config, &source, PolicyKind::qcr_default(), 3, 2).unwrap();
        assert_eq!(a.event_digest, b.event_digest);
        assert_eq!(a.outcome.final_replicas, b.outcome.final_replicas);
        let c = run_trial_sharded(&config, &source, PolicyKind::qcr_default(), 4, 2).unwrap();
        assert_ne!(a.event_digest, c.event_digest);
    }

    #[test]
    fn qcr_preserves_cache_budget_and_serves_requests() {
        let config = small_config(10, 2);
        let source = ContactSource::homogeneous(40, 0.03, 2_000.0);
        let out = run_trial_sharded(&config, &source, PolicyKind::qcr_default(), 5, 2).unwrap();
        let m = &out.outcome.metrics;
        assert_eq!(out.outcome.label, "QCR");
        let total: u32 = out.outcome.final_replicas.iter().sum();
        assert_eq!(total, 80, "global cache must stay full");
        for (i, &r) in out.outcome.final_replicas.iter().enumerate() {
            assert!(r >= 1, "item {i} lost despite sticky replica");
        }
        assert!(m.requests_created > 300);
        assert!(
            m.fulfillments() > m.requests_created / 2,
            "most requests should be fulfilled ({} of {})",
            m.fulfillments(),
            m.requests_created
        );
        assert!(out.contacts_processed > 0);
        // Snapshots cover every bin.
        let series = m.expected_utility_series();
        assert_eq!(series.len(), 20);
        assert!(series.iter().all(|v| v.is_finite()), "{series:?}");
    }

    #[test]
    fn static_allocation_never_changes() {
        let items = 10;
        let counts = uniform(items, 40, 2);
        let config = small_config(items, 2);
        let source = ContactSource::homogeneous(40, 0.03, 1_000.0);
        let policy = PolicyKind::Static {
            label: "UNI",
            counts: counts.clone(),
        };
        let out = run_trial_sharded(&config, &source, policy, 5, 2).unwrap();
        assert_eq!(out.outcome.final_replicas, counts.counts());
        assert_eq!(out.outcome.metrics.transmissions, 0);
        assert_eq!(out.outcome.label, "UNI");
    }

    #[test]
    fn small_populations_leave_some_shards_empty() {
        let config = small_config(5, 1);
        let source = ContactSource::homogeneous(5, 0.05, 500.0);
        let out = run_trial_sharded(&config, &source, PolicyKind::qcr_default(), 1, 8).unwrap();
        assert!(out.outcome.metrics.requests_created > 0);
        assert_eq!(out.outcome.final_replicas.iter().sum::<u32>(), 5);
    }

    #[test]
    fn unsupported_configurations_are_rejected() {
        let config = small_config(5, 2);
        let source = ContactSource::homogeneous(20, 0.05, 500.0);
        let qcr = PolicyKind::qcr_default;
        // Trace source.
        let trace = ContactSource::trace(impatience_traces::ContactTrace::new(4, 10.0, vec![]));
        assert!(matches!(
            validate_sharded(&config, &trace, &qcr()),
            Err(ConfigError::UnsupportedSharded { .. })
        ));
        // Hill climbing.
        assert!(matches!(
            validate_sharded(&config, &source, &PolicyKind::HillClimb),
            Err(ConfigError::UnsupportedSharded { .. })
        ));
        // Dedicated population.
        let dedicated = SimConfig::builder(5, 2).dedicated_servers(4).build();
        assert!(matches!(
            validate_sharded(&dedicated, &source, &qcr()),
            Err(ConfigError::UnsupportedSharded { .. })
        ));
        // Demand shifts.
        let shifted = SimConfig::builder(5, 2)
            .demand_shift(100.0, Popularity::pareto(5, 1.0).demand_rates(1.0))
            .build();
        assert!(matches!(
            validate_sharded(&shifted, &source, &qcr()),
            Err(ConfigError::UnsupportedSharded { .. })
        ));
        // Churn.
        let churny = SimConfig::builder(5, 2)
            .faults(FaultConfig {
                churn: Some(Churn {
                    mean_up: 50.0,
                    mean_down: 10.0,
                }),
                ..FaultConfig::default()
            })
            .build();
        assert!(matches!(
            validate_sharded(&churny, &source, &qcr()),
            Err(ConfigError::UnsupportedSharded { .. })
        ));
        // Non-uniform profile.
        let clustered = SimConfig::builder(5, 2)
            .profile(impatience_core::demand::DemandProfile::clustered(
                5, 20, 4, 4.0,
            ))
            .build();
        assert!(matches!(
            validate_sharded(&clustered, &source, &qcr()),
            Err(ConfigError::UnsupportedSharded { .. })
        ));
        // The supported subset passes.
        validate_sharded(&config, &source, &qcr()).unwrap();
    }
}
