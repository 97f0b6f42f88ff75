//! The discrete-event engine: replay contacts, generate demand, fulfill
//! requests, and let the policy replicate.
//!
//! Mechanics (following §6.1):
//!
//! * requests arrive as a Poisson process of total rate `Σ_i d_i`; each
//!   request draws its item from the popularity distribution and its
//!   origin node from the demand profile `π`;
//! * a request whose origin already caches the item is fulfilled
//!   immediately with gain `h(0⁺)` (the pure-P2P self-service term);
//! * at each contact, both nodes first fulfill one another's outstanding
//!   requests (gain `h(wait)` recorded per fulfillment), each meeting
//!   with a cache-carrying peer counting as one query for every request
//!   the node has pending (kept as a per-node count, see
//!   [`RequestArena::meet`]); then the policy's replication logic runs;
//! * fulfillment delivers (consumes) the content but does **not** write
//!   it into the requester's protocol cache — caches change only through
//!   the replication policy.
//!
//! Those mechanics are written once. [`Frame`] is what every runtime
//! shares around its exchange: the seeding order ([`seed_trial`]), the
//! arrivals ([`Demand`]), faults, admission, settlement and the books.
//! The crate-private `Trial` adds the engine's exchange (request arena,
//! `meeting`, policy) and has two drivers: the lane driver below and the
//! slot loop of [`crate::engine_discrete`]. The kernel of `impatience-net`
//! is the third driver of a `Frame`; its requests wait at node tasks.
//! [`crate::sharded`] keeps its own frame — its exchange is the eager
//! walk, for the reasons at [`RequestArena::retain`] — and calls the same
//! placement, replica book, fault clock and gain booking.
//!
//! The lane driver (`run_lanes`) samples the contact sequence of a trial
//! seed once and steps any number of *lanes* through it, a batch of
//! contacts at a time. A lane is one policy's whole trial — its own
//! `Trial`, RNG, arrival process, fault state, recorder and scratch — so
//! it ends bit-identical to a trial run alone: lanes share nothing but
//! the slice of contacts. [`run_trial`] and its variants are the one-lane
//! call; the campaign runner ([`crate::runner`]) rides every policy of a
//! comparison on one drain.

use impatience_core::demand::DemandRates;
use impatience_core::rng::{AliasTable, Xoshiro256};
use impatience_core::types::SystemModel;
use impatience_obs::{span, Recorder, Sink};
use impatience_traces::{ContactEvent, ContactStream};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use crate::config::{ContactSource, SimConfig};
use crate::faults::FaultState;
use crate::metrics::Metrics;
use crate::policy::{Fulfillment, PolicyKind, ReplicationPolicy};
use crate::state::{RequestArena, SimState};
use crate::streams;

/// Reusable per-trial working storage: the SoA cache/replica state, the
/// pending-request arena with its per-node count of servable requests,
/// and the per-contact fulfillment buffers.
///
/// A trial begins by `reset`-ing each piece to its freshly-constructed
/// state, so results are bit-identical whether a scratch is fresh or
/// reused — the runner keeps one per worker thread and threads it
/// through every trial, eliminating the per-trial allocation churn that
/// previously dominated `trial` self-time in campaign profiles.
#[derive(Debug, Default)]
pub struct TrialScratch {
    pub(crate) state: SimState,
    pub(crate) requests: RequestArena,
    /// Per node, the pending requests a meeting could still serve
    /// ([`Trial::idle`]).
    servable: Vec<u32>,
    pub(crate) fulfilled: Vec<Fulfillment>,
    pub(crate) waits: Vec<f64>,
    pub(crate) gains: Vec<f64>,
}

impl TrialScratch {
    /// Empty scratch; sized lazily by the first trial that uses it.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Result of one simulation trial.
#[derive(Clone, Debug)]
pub struct TrialOutcome {
    /// All recorded measurements.
    pub metrics: Metrics,
    /// Replica counts at the end of the trial.
    pub final_replicas: Vec<u32>,
    /// The policy label (e.g. "QCR", "OPT").
    pub label: String,
}

/// Run one trial of `policy` on the given system and contact source.
///
/// The same `(config, source, policy, seed)` quadruple always reproduces
/// the same trajectory bit-for-bit.
///
/// # Panics
/// Panics with the [`crate::ConfigError`] message when `config` does not
/// fit the source's population.
pub fn run_trial(
    config: &SimConfig,
    source: &ContactSource,
    policy: PolicyKind,
    seed: u64,
) -> TrialOutcome {
    run_trial_observed(config, source, policy, seed, &mut Recorder::disabled())
}

/// [`run_trial`] with instrumentation.
///
/// Every simulation event (contact, request, fulfillment, replication)
/// is reported to `rec`; counters, delay and inter-contact histograms,
/// and the peak outstanding-request depth accumulate there. The hooks
/// are statically dispatched on the sink type: monomorphized against
/// `NoopSink` (as [`run_trial`] does) they compile away, so the
/// uninstrumented path pays nothing; the live sinks cost the performance
/// ledger's `obs.sink.*` ratios (`benchmark/`).
pub fn run_trial_observed<S: Sink>(
    config: &SimConfig,
    source: &ContactSource,
    policy: PolicyKind,
    seed: u64,
    rec: &mut Recorder<S>,
) -> TrialOutcome {
    run_trial_observed_scratch(config, source, policy, seed, rec, &mut TrialScratch::new())
}

/// [`run_trial`] reusing caller-owned working storage.
///
/// The trajectory is bit-identical to a fresh-scratch run; the point is
/// that a worker thread running many trials allocates its state, request
/// arena, and fulfillment buffer once instead of once per trial.
pub fn run_trial_scratch(
    config: &SimConfig,
    source: &ContactSource,
    policy: PolicyKind,
    seed: u64,
    scratch: &mut TrialScratch,
) -> TrialOutcome {
    run_trial_observed_scratch(
        config,
        source,
        policy,
        seed,
        &mut Recorder::disabled(),
        scratch,
    )
}

/// A trial's seeding order starts here: the trial root forks the contact
/// stream, then [`Frame::begin`] places the initial caches from it and
/// [`Demand::arrivals`] draws the first arrival — the same contacts,
/// placement and first arrival in every runtime on `seed` ([`streams`]).
pub fn seed_trial(source: &ContactSource, seed: u64) -> (Xoshiro256, BatchedContacts) {
    let mut rng = streams::trial(seed);
    let contacts = BatchedContacts::new(source.stream(&mut rng));
    (rng, contacts)
}

/// Number of events pulled per [`BatchedContacts`] refill (and per
/// sharded lane refill).
///
/// 1024 events = 16 KiB — comfortably inside L1/L2, while amortizing the
/// per-refill call overhead ~1000×.
pub const DEFAULT_BATCH: usize = 1024;

/// Batch adapter over a lazy [`ContactStream`]: a refill pulls up to
/// `batch` upcoming events into one reusable buffer, which the lane
/// driver takes a slice at a time (`next_batch`) and the net kernel an
/// event at a time (`peek`/`next`).
///
/// Steady-state consumption performs zero allocation — `clear()` keeps
/// the buffer's capacity across refills. Because the underlying contact
/// stream draws from its own forked RNG stream, sampling a batch ahead
/// of the simulation clock cannot perturb any other random draw, so the
/// event sequence is bit-identical to consuming the stream directly.
#[derive(Debug)]
pub struct BatchedContacts {
    stream: ContactStream,
    nodes: usize,
    duration: f64,
    batch: usize,
    buf: Vec<ContactEvent>,
    /// Index of the next unconsumed event in `buf`.
    pos: usize,
    exhausted: bool,
}

impl BatchedContacts {
    /// Wrap a stream with the default batch size ([`DEFAULT_BATCH`]).
    pub fn new(stream: ContactStream) -> Self {
        Self::with_batch(stream, DEFAULT_BATCH)
    }

    /// Wrap a stream, pulling `batch` events per refill.
    ///
    /// # Panics
    /// Panics if `batch` is zero.
    pub(crate) fn with_batch(stream: ContactStream, batch: usize) -> Self {
        assert!(batch > 0, "batch size must be at least 1");
        BatchedContacts {
            nodes: stream.nodes(),
            duration: stream.duration(),
            stream,
            batch,
            buf: Vec::with_capacity(batch),
            pos: 0,
            exhausted: false,
        }
    }

    /// Number of nodes the stream covers.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// Length of the observation window.
    pub fn duration(&self) -> f64 {
        self.duration
    }

    /// Pull the next batch of events into the reusable buffer, unless the
    /// current one still has events or the stream has ended.
    fn refill(&mut self) {
        if self.pos < self.buf.len() || self.exhausted {
            return;
        }
        let _s = impatience_obs::span!("stream");
        self.buf.clear();
        self.pos = 0;
        match &mut self.stream {
            ContactStream::Poisson(stream) => stream.fill(&mut self.buf, self.batch),
            cursor => self.buf.extend(cursor.by_ref().take(self.batch)),
        }
        self.exhausted = self.buf.len() < self.batch;
    }

    /// Every event not yet consumed of the current batch — a fresh batch
    /// when there is none — consumed as a whole. Empty once the stream
    /// has ended.
    pub(crate) fn next_batch(&mut self) -> &[ContactEvent] {
        self.refill();
        let batch = &self.buf[self.pos..];
        self.pos = self.buf.len();
        batch
    }

    /// The next event without consuming it (refilling if the current
    /// batch is drained).
    pub fn peek(&mut self) -> Option<ContactEvent> {
        self.refill();
        self.buf.get(self.pos).copied()
    }
}

impl Iterator for BatchedContacts {
    type Item = ContactEvent;

    fn next(&mut self) -> Option<ContactEvent> {
        let e = self.peek()?;
        self.pos += 1;
        Some(e)
    }
}

/// A trial's demand: Poisson arrivals of total rate `Σ_i d_i`, items drawn
/// through an alias table; a demand shift (§7) restarts the process,
/// memorylessly, with its rates.
pub struct Demand<'a> {
    shifts: std::iter::Peekable<std::slice::Iter<'a, (f64, DemandRates)>>,
    rates: &'a DemandRates,
    total: f64,
    sampler: Option<AliasTable>,
    /// Time of the next arrival (∞ without demand).
    next: f64,
}

impl<'a> Demand<'a> {
    /// `config`'s demand, no arrival drawn (the slot loop draws counts).
    pub(crate) fn new(config: &'a SimConfig) -> Self {
        let total = config.demand.total();
        Demand {
            shifts: config.demand_shifts.iter().peekable(),
            rates: &config.demand,
            total,
            sampler: (total > 0.0).then(|| AliasTable::new(config.demand.rates())),
            next: f64::INFINITY,
        }
    }

    /// The event-driven process: the first arrival drawn from `rng`.
    pub fn arrivals(config: &'a SimConfig, rng: &mut Xoshiro256) -> Self {
        let mut demand = Demand::new(config);
        demand.next = demand.after(0.0, rng);
        demand
    }

    /// An arrival time after `t` at the active total rate.
    #[inline]
    fn after(&self, t: f64, rng: &mut Xoshiro256) -> f64 {
        if self.total > 0.0 {
            t + rng.exp(self.total)
        } else {
            f64::INFINITY
        }
    }

    /// The next arrival time, once the shifts due by it, by the driver's
    /// next event `other` and by `horizon` have taken effect.
    #[inline]
    pub fn next_arrival(&mut self, other: f64, horizon: f64, rng: &mut Xoshiro256) -> f64 {
        while let Some(&&(t, ref rates)) = self.shifts.peek() {
            if t > self.next.min(other).min(horizon) {
                break;
            }
            self.shifts.next();
            self.rates = rates;
            self.total = rates.total();
            self.sampler = (self.total > 0.0).then(|| AliasTable::new(rates.rates()));
            self.next = self.after(t, rng);
        }
        self.next
    }

    /// The earlier of the next arrival and the next demand shift: before
    /// it, [`Demand::next_arrival`] changes nothing.
    #[inline]
    pub(crate) fn next_event(&mut self) -> f64 {
        let shift = self.shifts.peek().map_or(f64::INFINITY, |&&(t, _)| t);
        self.next.min(shift)
    }

    /// The active rates.
    pub(crate) fn rates(&self) -> &'a DemandRates {
        self.rates
    }

    /// An item drawn from the active rates.
    #[inline]
    pub(crate) fn sample(&self, rng: &mut Xoshiro256) -> u32 {
        let sampler = self.sampler.as_ref().expect("arrivals imply demand");
        sampler.sample(rng) as u32
    }
}

/// What every runtime of a trial shares around its exchange: the trial
/// RNG, the fault model, request admission, settlement and the books.
pub struct Frame<'a, S: Sink> {
    config: &'a SimConfig,
    faults: Option<FaultState>,
    /// First client node id (dedicated populations: after the servers).
    client_base: usize,
    duration: f64,
    seed: u64,
    label: String,
    wall_start: Option<Instant>,
    /// The trial's measurements.
    pub metrics: Metrics,
    /// Where the trial's events go.
    pub rec: &'a mut Recorder<S>,
    /// The trial RNG: initial placement, demand and the policy draw from
    /// it; contacts and faults run on streams of their own.
    pub rng: Xoshiro256,
}

impl<'a, S: Sink> Frame<'a, S> {
    /// Begin a trial of `policy` on `state`, reset for `nodes` nodes: the
    /// policy places the caches from `rng` as [`seed_trial`] left it and
    /// names the trial. Its contact rules are the driver's to build
    /// ([`PolicyKind::instantiate`]); a runtime with a protocol of its own
    /// builds none. `config` is resolved for `nodes`
    /// ([`SimConfig::try_resolved`]).
    #[allow(clippy::too_many_arguments)] // one trial's whole context
    pub fn begin(
        config: &'a SimConfig,
        policy: &PolicyKind,
        nodes: usize,
        duration: f64,
        mut rng: Xoshiro256,
        seed: u64,
        rec: &'a mut Recorder<S>,
        state: &mut SimState,
    ) -> Self {
        let wall_start = rec.is_active().then(Instant::now);
        rec.trial_start();
        // Population shape: pure P2P (every node serves) or dedicated
        // (nodes 0..servers carry caches, the rest only request).
        let servers = config.dedicated_servers.unwrap_or(nodes);
        state.reset(nodes, servers, config.items, config.rho);
        state.set_eviction(config.eviction);
        policy.place(state, &mut rng);
        // Faults run on the fault root, never on `rng`: an *inactive*
        // FaultConfig leaves the trajectory bit-for-bit unchanged.
        let faults = config
            .faults
            .as_ref()
            .and_then(|f| f.for_trial(seed))
            .map(|f| FaultState::new(f, nodes, servers, duration, seed));
        Frame {
            config,
            faults,
            client_base: config.dedicated_servers.unwrap_or(0),
            duration,
            seed,
            label: policy.label(),
            wall_start,
            metrics: Metrics::new(duration, config.bin),
            rec,
            rng,
        }
    }

    /// Fire the cache-slot faults due by `t`. Drivers call this before
    /// the event at `t`: an immediate hit, a contact fulfillment or a
    /// snapshot must see the degraded caches.
    pub fn cache_faults(&mut self, t: f64, state: &mut SimState) {
        if let Some(fs) = self.faults.as_mut() {
            fs.apply_cache_faults(t, state, &mut self.metrics, self.rec);
        }
    }

    /// Time of the next cache-slot fault (∞ without one).
    #[inline]
    pub(crate) fn next_cache_fault(&self) -> f64 {
        self.faults
            .as_ref()
            .map_or(f64::INFINITY, FaultState::next_cache_fault)
    }

    /// Nodes `a` and `b` meet at `t`: recorded, unless the fault model
    /// drops the contact (false).
    pub fn contact(&mut self, t: f64, a: u32, b: u32) -> bool {
        if let Some(fs) = self.faults.as_mut() {
            if !fs.admit_contact(t, a, b, &mut self.metrics, self.rec) {
                return false;
            }
        }
        self.rec.contact(t, a, b);
        true
    }

    /// A request for `item` arrives at `t`: draw its origin, serve it from
    /// the origin's own cache if it can, else return the origin.
    pub(crate) fn admit(&mut self, t: f64, item: u32, state: &SimState) -> Option<usize> {
        let origin = self
            .config
            .profile
            .sample_origin(item as usize, &mut self.rng);
        let node = self.client_base + origin;
        let hit = state.caches.holds(node, item);
        self.metrics
            .record_request(t, hit, self.config.utility.as_ref());
        self.rec.request(t, node as u32, item);
        if !hit {
            return Some(node);
        }
        self.rec.immediate_hit(t, node as u32, item);
        None
    }

    /// Admit the arrival `demand` has due, then draw the next one; returns
    /// `(time, origin, item)` of a request that must wait.
    pub fn arrival(
        &mut self,
        demand: &mut Demand<'_>,
        state: &SimState,
    ) -> Option<(f64, usize, u32)> {
        let t = demand.next;
        let item = demand.sample(&mut self.rng);
        let waiting = self.admit(t, item, state);
        demand.next = demand.after(t, &mut self.rng);
        waiting.map(|node| (t, node, item))
    }

    /// Settle a request still open at `t` (horizon or deadline), `age`
    /// after its creation.
    pub fn settle(&mut self, t: f64, node: u32, item: u32, age: f64) {
        let age = self.metrics.settle(t, self.config.utility.as_ref(), age);
        self.rec.unfulfilled(t, node, item, age);
    }

    /// Close the books once the open requests are settled. `wall_s` is for
    /// a driver that keeps the trial's clock (a lane runs interleaved);
    /// else it is the time since [`Frame::begin`].
    pub fn finish(mut self, state: &SimState, wall_s: Option<f64>) -> TrialOutcome {
        let since_begin = self.wall_start.map(|t| t.elapsed().as_secs_f64());
        self.metrics.transmissions = state.transmissions;
        self.rec
            .trial_done(self.seed, wall_s.or(since_begin).unwrap_or(0.0));
        TrialOutcome {
            metrics: self.metrics,
            // Clone rather than take: a scratch state stays structurally
            // sound for the next trial's reset.
            final_replicas: state.replicas.clone(),
            label: self.label,
        }
    }
}

/// The engine's trial: a [`Frame`] plus the request arena and the policy's
/// contact rules (none for a pinned allocation).
/// A driver stamps each request with an `f64` of its own clock (a time, or
/// a slot number) and converts stamps back to waits and ages.
pub(crate) struct Trial<'a, S: Sink> {
    pub(crate) frame: Frame<'a, S>,
    scratch: &'a mut TrialScratch,
    policy: Option<Box<dyn ReplicationPolicy>>,
    open_requests: u64,
}

impl<'a, S: Sink> Trial<'a, S> {
    /// The trial `frame` began on `scratch.state` for `policy`.
    pub(crate) fn new(
        frame: Frame<'a, S>,
        policy: Option<Box<dyn ReplicationPolicy>>,
        scratch: &'a mut TrialScratch,
    ) -> Self {
        let nodes = scratch.state.nodes();
        scratch.requests.reset_indexed(nodes, frame.config.items);
        scratch.servable.clear();
        scratch.servable.resize(nodes, 0);
        scratch.fulfilled.clear();
        Trial {
            frame,
            scratch,
            policy,
            open_requests: 0,
        }
    }

    /// [`Frame::cache_faults`] on the trial's caches.
    pub(crate) fn cache_faults(&mut self, t: f64) {
        self.frame.cache_faults(t, &mut self.scratch.state);
    }

    /// Record the bin-start snapshot at `t` under `demand`.
    pub(crate) fn snapshot(&mut self, t: f64, system: &SystemModel, demand: &DemandRates) {
        let _s = impatience_obs::span!("snapshot");
        self.frame.metrics.record_snapshot(
            t,
            &self.scratch.state.replicas,
            system,
            demand,
            self.frame.config.utility.as_ref(),
        );
    }

    /// Admit a request for `item` at `t`; queue it under `stamp`.
    pub(crate) fn request(&mut self, t: f64, stamp: f64, item: u32) {
        if let Some(node) = self.frame.admit(t, item, &self.scratch.state) {
            self.queue(node, item, stamp);
        }
    }

    /// Queue a request for `item` at `node` under `stamp`. It counts as
    /// servable unless the lane has no contact rules and no copy of
    /// `item` exists: that allocation never grows, so no meeting can
    /// serve it.
    fn queue(&mut self, node: usize, item: u32, stamp: f64) {
        self.scratch.requests.push(node, item, stamp);
        if self.policy.is_some() || self.scratch.state.replicas[item as usize] > 0 {
            self.scratch.servable[node] += 1;
        }
        if self.frame.rec.is_active() {
            self.open_requests += 1;
            self.frame.rec.open_requests(self.open_requests);
        }
    }

    /// Nodes `a` and `b` meet at time `t`: unless the fault model drops
    /// the contact, each serves the other's pending requests (`wait`
    /// turns a request's stamp into its waiting time), then the policy,
    /// if it has contact rules, replicates.
    pub(crate) fn meeting(&mut self, t: f64, a: u32, b: u32, wait: impl Fn(f64) -> f64) {
        if !self.frame.contact(t, a, b) {
            return;
        }
        let TrialScratch {
            state,
            requests,
            servable,
            fulfilled,
            waits,
            gains,
        } = &mut *self.scratch;
        let Frame {
            config,
            metrics,
            rec,
            rng,
            ..
        } = &mut self.frame;
        let (a, b) = (a as usize, b as usize);
        fulfilled.clear();
        let exchange_span = impatience_obs::span!("exchange");
        for (n, m) in [(a, b), (b, a)] {
            requests.meet(n, state.caches.node(m), |item, created, queries| {
                fulfilled.push(Fulfillment {
                    node: n,
                    item,
                    queries,
                    wait: wait(created),
                });
            });
        }
        if !fulfilled.is_empty() {
            for f in fulfilled.iter() {
                // LRU bookkeeping: serving a request counts as a use
                // of the peer's copy.
                let server = if f.node == a { b } else { a };
                state.caches.node_mut(server).touch(f.item);
                servable[f.node] -= 1;
            }
            metrics.record_meeting(t, config.utility.as_ref(), fulfilled, waits, gains);
            if rec.is_active() {
                for f in fulfilled.iter() {
                    rec.fulfillment(t, f.node as u32, f.item, f.wait, f.queries as u32);
                }
                self.open_requests -= fulfilled.len() as u64;
            }
        }
        exchange_span.close();
        let _policy_span = impatience_obs::span!("policy");
        if let Some(policy) = self.policy.as_mut() {
            let transmissions_before = state.transmissions;
            policy.after_contact(t, a, b, state, fulfilled, metrics, rng);
            rec.replications(t, state.transmissions - transmissions_before);
        }
    }

    /// Whether a meeting can change nothing on `node`'s side: it has no
    /// servable request pending and the contact rules, if any, call it
    /// idle ([`ReplicationPolicy::idle`]). A meeting of two idle nodes
    /// fulfils nothing, so the rules do nothing either; only a dropped
    /// contact or an active sink could still tell it happened.
    #[inline]
    fn idle(&self, node: usize) -> bool {
        self.scratch.servable[node] == 0 && self.policy.as_ref().is_none_or(|p| p.idle(node))
    }

    /// Settle what is open at the horizon (`age` turns a stamp into the
    /// time waited) and close the books.
    pub(crate) fn finish(mut self, wall_s: Option<f64>, age: impl Fn(f64) -> f64) -> TrialOutcome {
        let _settle_span = impatience_obs::span!("settle");
        let TrialScratch {
            state, requests, ..
        } = self.scratch;
        let duration = self.frame.duration;
        self.frame.metrics.unfulfilled = requests.len();
        for (node, item, created) in requests.iter() {
            self.frame.settle(duration, node as u32, item, age(created));
        }
        self.frame.finish(state, wall_s)
    }
}

/// The one-lane call of the lane driver.
fn run_trial_observed_scratch<S: Sink>(
    config: &SimConfig,
    source: &ContactSource,
    policy: PolicyKind,
    seed: u64,
    rec: &mut Recorder<S>,
    scratch: &mut TrialScratch,
) -> TrialOutcome {
    let (outcome, _) = run_lanes(
        config,
        source,
        seed,
        &[&policy],
        std::slice::from_mut(rec),
        std::slice::from_mut(scratch),
    )
    .pop()
    .expect("one lane in, one result out");
    outcome.unwrap_or_else(|panic| resume_unwind(panic))
}

/// One policy's trial riding a shared contact sequence.
struct Lane<'a, S: Sink> {
    trial: Trial<'a, S>,
    demand: Demand<'a>,
    snapshot_system: Option<SystemModel>,
    next_snapshot: f64,
}

impl<'a, S: Sink> Lane<'a, S> {
    /// Ride `trial`, its first arrival drawn.
    fn new(mut trial: Trial<'a, S>, nodes: usize, mu_ref: f64) -> Self {
        let config = trial.frame.config;
        Lane {
            demand: Demand::arrivals(config, &mut trial.frame.rng),
            trial,
            snapshot_system: (mu_ref > 0.0).then(|| config.system(nodes, mu_ref)),
            next_snapshot: 0.0,
        }
    }

    /// Bin-start snapshots due by `until`, under the active demand.
    fn snapshots(&mut self, until: f64) {
        while self.next_snapshot <= until && self.next_snapshot < self.trial.frame.duration {
            if let Some(system) = &self.snapshot_system {
                self.trial
                    .snapshot(self.next_snapshot, system, self.demand.rates());
            }
            self.next_snapshot += self.trial.frame.config.bin;
        }
    }

    /// Everything this lane does up to and including `contact` — or,
    /// given none, up to the horizon: demand shifts, snapshots, cache
    /// faults and the requests that arrive first, then the meeting.
    fn step(&mut self, contact: Option<&ContactEvent>) {
        let next_contact_t = contact.map_or(f64::INFINITY, |e| e.time);
        let duration = self.trial.frame.duration;
        loop {
            let next_request =
                self.demand
                    .next_arrival(next_contact_t, duration, &mut self.trial.frame.rng);
            let t = next_request.min(next_contact_t);
            if !t.is_finite() || t > duration {
                return;
            }
            self.snapshots(t);
            self.trial.cache_faults(t);

            if next_request <= next_contact_t {
                let _s = impatience_obs::span!("request");
                let trial = &mut self.trial;
                if let Some((t, node, item)) =
                    trial.frame.arrival(&mut self.demand, &trial.scratch.state)
                {
                    trial.queue(node, item, t);
                }
            } else {
                let _s = impatience_obs::span!("contact");
                let e = contact.expect("a finite contact time");
                self.trial
                    .meeting(e.time, e.a, e.b, |created| e.time - created);
                return;
            }
        }
    }

    /// The earliest time at which [`Lane::step`] does more than meet: the
    /// next arrival or demand shift, bin start or cache fault, or the
    /// horizon. A contact strictly before it only meets.
    #[inline]
    fn quiet(&mut self) -> f64 {
        self.demand
            .next_event()
            .min(self.next_snapshot)
            .min(self.trial.frame.next_cache_fault())
            .min(self.trial.frame.duration)
    }

    /// [`Lane::step`] through `contacts`: a run of contacts before the
    /// next non-contact event goes straight to the meetings
    /// ([`Lane::quiet_run`]), the first contact at or past it through
    /// `step`.
    fn batch(&mut self, mut contacts: &[ContactEvent]) {
        while !contacts.is_empty() {
            let run = self.quiet_run(contacts);
            let Some(e) = contacts.get(run) else {
                return;
            };
            self.step(Some(e));
            contacts = &contacts[run + 1..];
        }
    }

    /// Meet at each leading contact of `contacts` before the lane's next
    /// non-contact event ([`Lane::quiet`]) and return how many there
    /// were. A run is timed as one `contact` span and counted as one
    /// call per contact (DESIGN §13).
    ///
    /// Without a fault model and on an inactive sink, a meeting of two
    /// idle nodes ([`Trial::idle`]) is skipped: no drop is drawn, nothing
    /// is recorded, nothing is fulfilled and the rules do nothing. At
    /// most a node's round counter would have moved, which only ever
    /// counts for a servable request ([`RequestArena::meet`]). A skipped
    /// meeting's `exchange` and `policy` calls are still counted.
    fn quiet_run(&mut self, contacts: &[ContactEvent]) -> usize {
        let quiet = self.quiet();
        if !contacts.first().is_some_and(|e| e.time < quiet) {
            return 0;
        }
        let trial = &mut self.trial;
        let skips = !S::ACTIVE && trial.frame.faults.is_none();
        let span = impatience_obs::span!("contact");
        let (mut run, mut skipped) = (0, 0);
        for e in contacts.iter().take_while(|e| e.time < quiet) {
            run += 1;
            if skips && trial.idle(e.a as usize) && trial.idle(e.b as usize) {
                skipped += 1;
                continue;
            }
            trial.meeting(e.time, e.a, e.b, |created| e.time - created);
        }
        span::add_calls("exchange", skipped);
        span::add_calls("policy", skipped);
        span.close();
        span::add_calls("contact", run as u64 - 1);
        run
    }

    /// Past the last contact: step to the horizon and take the trailing
    /// snapshots.
    fn run_out(&mut self) {
        self.step(None);
        self.snapshots(f64::INFINITY);
    }

    /// Settle what is still outstanding at the horizon; `wall_s` is the
    /// time spent in this lane.
    fn finish(self, wall_s: f64) -> TrialOutcome {
        let duration = self.trial.frame.duration;
        self.trial
            .finish(Some(wall_s), |created| duration - created)
    }
}

/// A lane behind its panic isolation, with the wall time spent in it.
struct Guarded<T> {
    lane: std::thread::Result<T>,
    busy: Duration,
}

impl<T> Guarded<T> {
    /// Build the lane: construction is inside the isolation too.
    fn begin(build: impl FnOnce() -> T) -> Self {
        let started = Instant::now();
        let lane = catch_unwind(AssertUnwindSafe(build));
        Guarded {
            lane,
            busy: started.elapsed(),
        }
    }

    /// Run `f` on the lane unless it has died; a panic kills it.
    fn step(&mut self, f: impl FnOnce(&mut T)) {
        if let Ok(lane) = &mut self.lane {
            let started = Instant::now();
            let result = catch_unwind(AssertUnwindSafe(|| f(lane)));
            self.busy += started.elapsed();
            if let Err(panic) = result {
                self.lane = Err(panic);
            }
        }
    }
}

/// Run one trial of every policy in `policies` on the contact sequence of
/// `seed`, sampled once: lane `i` runs `policies[i]` against `recs[i]` and
/// `scratches[i]`, and yields what [`run_trial_observed`] on the same
/// arguments would, bit for bit — or the payload of the panic that killed
/// it, which leaves the other lanes running — together with the wall time
/// spent in it, in seconds.
///
/// The trial is seeded once ([`seed_trial`]); every lane draws from its
/// own copy of the trial root as the contact fork left it, and arms its
/// own `FaultState`, so all lanes see the same contacts, drops and
/// outages ([`crate::streams`]).
/// Then, a batch of contacts at a time, each lane in turn steps through
/// the whole batch.
///
/// # Panics
/// Panics with the [`crate::ConfigError`] message when `config` does not
/// fit the source's population: that fails every lane alike.
pub(crate) fn run_lanes<S: Sink>(
    config: &SimConfig,
    source: &ContactSource,
    seed: u64,
    policies: &[&PolicyKind],
    recs: &mut [Recorder<S>],
    scratches: &mut [TrialScratch],
) -> Vec<(std::thread::Result<TrialOutcome>, f64)> {
    drive_lanes(
        config,
        source,
        seed,
        policies,
        recs,
        scratches,
        |lane, batch| lane.batch(batch),
    )
}

/// [`run_lanes`] with `drive` taking each lane through each batch of
/// contacts: [`Lane::batch`] here, one [`Lane::step`] per contact in the
/// tests' reference driver.
fn drive_lanes<S: Sink>(
    config: &SimConfig,
    source: &ContactSource,
    seed: u64,
    policies: &[&PolicyKind],
    recs: &mut [Recorder<S>],
    scratches: &mut [TrialScratch],
    drive: impl Fn(&mut Lane<'_, S>, &[ContactEvent]),
) -> Vec<(std::thread::Result<TrialOutcome>, f64)> {
    assert!(policies.len() == recs.len() && policies.len() == scratches.len());
    // Self-profiling spans (impatience_obs::span) are gated process-wide
    // and cost one relaxed atomic load and a branch each (~1 ns) when
    // profiling is off; they are independent of the recorder's sink, so
    // `--profile` attributes wall time even on otherwise-unobserved runs.
    let _trial_span = impatience_obs::span!("trial");
    // Contacts arrive `DEFAULT_BATCH` at a time in a reusable buffer, so
    // the hot loop touches no allocator and no enum dispatch per event.
    let (rng, mut contacts) = seed_trial(source, seed);
    let (nodes, duration) = (contacts.nodes(), contacts.duration());
    // `mu_ref` is the source's reference rate for the homogeneous
    // welfare approximation (and QCR's ψ).
    let mu_ref = source.mean_rate();
    let config = config.try_resolved(nodes).unwrap_or_else(|e| panic!("{e}"));
    let config: &SimConfig = &config;
    let mut lanes: Vec<Guarded<Lane<'_, S>>> = policies
        .iter()
        .zip(recs)
        .zip(scratches)
        .map(|((policy, rec), scratch)| {
            let rng = rng.clone();
            Guarded::begin(move || {
                let state = &mut scratch.state;
                let frame = Frame::begin(config, policy, nodes, duration, rng, seed, rec, state);
                let rules = policy.instantiate(config, nodes, mu_ref);
                Lane::new(Trial::new(frame, rules, scratch), nodes, mu_ref)
            })
        })
        .collect();
    loop {
        let batch = contacts.next_batch();
        if batch.is_empty() {
            break;
        }
        for lane in &mut lanes {
            lane.step(|lane| drive(lane, batch));
        }
    }
    lanes
        .into_iter()
        .map(|mut guarded| {
            guarded.step(Lane::run_out);
            let wall_s = guarded.busy.as_secs_f64();
            let outcome = guarded
                .lane
                .and_then(|lane| catch_unwind(AssertUnwindSafe(|| lane.finish(wall_s))));
            (outcome, wall_s)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::QcrConfig;
    use impatience_core::demand::Popularity;
    use impatience_core::prelude::{greedy_homogeneous, uniform};
    use impatience_core::types::SystemModel;
    use impatience_core::utility::Step;
    use impatience_traces::{ContactEvent, ContactTrace};
    use std::sync::Arc;

    fn small_config(items: usize, rho: usize) -> SimConfig {
        SimConfig::builder(items, rho)
            .demand(Popularity::pareto(items, 1.0).demand_rates(0.5))
            .utility(Arc::new(Step::new(10.0)))
            .bin(100.0)
            .build()
    }

    #[test]
    fn deterministic_per_seed() {
        let config = small_config(10, 2);
        let source = ContactSource::homogeneous(10, 0.05, 1_000.0);
        let a = run_trial(&config, &source, PolicyKind::qcr_default(), 7);
        let b = run_trial(&config, &source, PolicyKind::qcr_default(), 7);
        assert_eq!(a.final_replicas, b.final_replicas);
        assert_eq!(a.metrics.fulfillments(), b.metrics.fulfillments());
        let c = run_trial(&config, &source, PolicyKind::qcr_default(), 8);
        // Different seeds produce different trajectories (compare the
        // full per-bin series; scalar counts could coincide by chance).
        assert_ne!(
            a.metrics.observed_rate_series(),
            c.metrics.observed_rate_series()
        );
    }

    #[test]
    fn qcr_preserves_cache_budget_and_sticky() {
        let config = small_config(10, 2);
        let source = ContactSource::homogeneous(10, 0.1, 2_000.0);
        let out = run_trial(&config, &source, PolicyKind::qcr_default(), 3);
        let total: u32 = out.final_replicas.iter().sum();
        assert_eq!(total, 20, "global cache must stay full");
        for (i, &r) in out.final_replicas.iter().enumerate() {
            assert!(r >= 1, "item {i} lost despite sticky replica");
        }
    }

    #[test]
    fn requests_get_fulfilled() {
        let config = small_config(10, 2);
        let source = ContactSource::homogeneous(10, 0.1, 2_000.0);
        let out = run_trial(&config, &source, PolicyKind::qcr_default(), 1);
        assert!(out.metrics.requests_created > 500);
        assert!(
            out.metrics.fulfillments() > out.metrics.requests_created / 2,
            "most requests should be fulfilled ({} of {})",
            out.metrics.fulfillments(),
            out.metrics.requests_created
        );
        // Some immediate hits expected in a pure-P2P system.
        assert!(out.metrics.immediate_hits > 0);
    }

    #[test]
    fn static_allocation_never_changes() {
        let items = 10;
        let counts = uniform(items, 10, 2);
        let config = small_config(items, 2);
        let source = ContactSource::homogeneous(10, 0.1, 1_000.0);
        let policy = PolicyKind::Static {
            label: "UNI",
            counts: counts.clone(),
        };
        let out = run_trial(&config, &source, policy, 5);
        assert_eq!(out.final_replicas, counts.counts());
        assert_eq!(out.metrics.transmissions, 0);
        assert_eq!(out.label, "UNI");
    }

    #[test]
    fn opt_beats_uniform_under_tight_deadline() {
        // Step(τ=1) with μ=0.05: tight deadline, popular items dominate —
        // the optimal allocation must clearly beat UNI (Fig. 4 right).
        let items = 20;
        let nodes = 20;
        let rho = 2;
        let utility = Step::new(1.0);
        let config = SimConfig::builder(items, rho)
            .demand(Popularity::pareto(items, 1.0).demand_rates(1.0))
            .utility(Arc::new(utility))
            .bin(200.0)
            .build();
        let source = ContactSource::homogeneous(nodes, 0.05, 4_000.0);
        let system = SystemModel::pure_p2p(nodes, rho, 0.05);
        let opt_counts = greedy_homogeneous(&system, &config.demand, &utility);
        let run = |counts, label| {
            let out = run_trial(&config, &source, PolicyKind::Static { label, counts }, 11);
            out.metrics.average_observed_rate(0.2)
        };
        let u_opt = run(opt_counts, "OPT");
        let u_uni = run(uniform(items, nodes, rho), "UNI");
        assert!(
            u_opt > u_uni * 1.1,
            "OPT ({u_opt}) should clearly beat UNI ({u_uni})"
        );
    }

    #[test]
    fn empty_trace_only_immediate_hits() {
        let config = small_config(4, 2);
        let trace = ContactTrace::new(4, 500.0, vec![]);
        let source = ContactSource::trace(trace);
        let out = run_trial(&config, &source, PolicyKind::qcr_default(), 2);
        assert_eq!(out.metrics.fulfillments(), out.metrics.immediate_hits);
        assert!(out.metrics.unfulfilled > 0);
    }

    #[test]
    fn zero_demand_runs_quietly() {
        let config = SimConfig::builder(3, 1)
            .demand(impatience_core::demand::DemandRates::new(vec![
                0.0, 0.0, 0.0,
            ]))
            .utility(Arc::new(Step::new(1.0)))
            .build();
        let source = ContactSource::homogeneous(5, 0.1, 100.0);
        let out = run_trial(&config, &source, PolicyKind::qcr_default(), 1);
        assert_eq!(out.metrics.requests_created, 0);
        assert_eq!(out.metrics.fulfillments(), 0);
    }

    #[test]
    fn fixed_trace_fulfills_in_order() {
        // Node 1 holds the item; node 0 requests it; they meet at t=50.
        let config = SimConfig::builder(1, 1)
            .demand(impatience_core::demand::DemandRates::new(vec![10.0]))
            .utility(Arc::new(Step::new(100.0)))
            .bin(10.0)
            .build();
        let trace = ContactTrace::new(2, 100.0, vec![ContactEvent::new(50.0, 0, 1)]);
        let source = ContactSource::trace(trace);
        // With a single item and sticky seeding, both nodes may hold it;
        // run and check nothing breaks and gains are recorded.
        let out = run_trial(&config, &source, PolicyKind::qcr_default(), 4);
        assert!(out.metrics.requests_created > 100);
        assert!(out.metrics.fulfillments() > 0);
    }

    #[test]
    fn mandate_cap_is_observed() {
        let config = small_config(20, 1);
        let source = ContactSource::homogeneous(20, 0.02, 3_000.0);
        let policy = PolicyKind::Qcr(QcrConfig {
            mandate_cap: 1,
            reaction: crate::policy::Reaction::Constant(50.0),
            ..QcrConfig::default()
        });
        let out = run_trial(&config, &source, policy, 6);
        assert!(out.metrics.mandate_cap_hits > 0);
        assert!(out.metrics.mandates_created <= out.metrics.fulfillments());
    }

    #[test]
    fn observed_trial_matches_plain_run_and_metrics() {
        use impatience_obs::{Event, MemorySink, Recorder};

        let config = small_config(10, 2);
        let source = ContactSource::homogeneous(10, 0.05, 1_000.0);
        let plain = run_trial(&config, &source, PolicyKind::qcr_default(), 7);
        let mut rec = Recorder::new(MemorySink::new());
        let observed = run_trial_observed(&config, &source, PolicyKind::qcr_default(), 7, &mut rec);

        // Instrumentation must not perturb the trajectory.
        assert_eq!(plain.final_replicas, observed.final_replicas);
        assert_eq!(
            plain.metrics.fulfillments(),
            observed.metrics.fulfillments()
        );
        assert_eq!(plain.metrics.transmissions, observed.metrics.transmissions);

        // Recorder counters are the same facts Metrics aggregates.
        let m = &observed.metrics;
        assert_eq!(rec.counters.get("requests"), m.requests_created);
        assert_eq!(rec.counters.get("immediate_hits"), m.immediate_hits);
        assert_eq!(rec.counters.get("unfulfilled"), m.unfulfilled);
        assert_eq!(rec.counters.get("transmissions"), m.transmissions);
        assert_eq!(
            rec.counters.get("fulfillments") + rec.counters.get("immediate_hits"),
            m.fulfillments()
        );
        assert_eq!(rec.delay.count(), rec.counters.get("fulfillments"));
        assert!(rec.peaks.get("open_requests") > 0);
        assert_eq!(rec.counters.get("trials"), 1);

        // The event stream is consistent with the counters.
        let events = &rec.sink().events;
        let n = |kind: &str| events.iter().filter(|e| e.kind() == kind).count() as u64;
        assert_eq!(n("contact"), rec.counters.get("contacts"));
        assert_eq!(n("request"), m.requests_created);
        assert_eq!(n("fulfillment"), rec.counters.get("fulfillments"));
        assert!(matches!(
            events.last(),
            Some(Event::TrialDone { seed: 7, .. })
        ));
    }

    #[test]
    fn starved_queues_do_not_make_meetings_expensive() {
        // DOM caches only the ρ most popular items, so every request
        // for the catalogue's tail waits until the horizon. The exchange
        // must not revisit those entries at every meeting.
        let (items, nodes, rho) = (20, 20, 2);
        let config = small_config(items, rho);
        let source = ContactSource::homogeneous(nodes, 0.05, 2_000.0);
        let policy = PolicyKind::Static {
            label: "DOM",
            counts: impatience_core::prelude::dominant(&config.demand, nodes, rho),
        };
        let mut scratch = TrialScratch::new();
        // A first trial of another shape, so the second reuses storage.
        run_trial_scratch(
            &small_config(70, 3),
            &ContactSource::homogeneous(12, 0.05, 300.0),
            PolicyKind::qcr_default(),
            2,
            &mut scratch,
        );
        let out = run_trial_scratch(&config, &source, policy.clone(), 5, &mut scratch);
        let created = out.metrics.requests_created;
        assert!(created > 500, "{created} requests");
        assert!(
            out.metrics.unfulfilled > created / 3,
            "tail not starved: {} of {created} unfulfilled",
            out.metrics.unfulfilled
        );
        // Eagerly walked, this trial visits each starved entry at each
        // of its node's ~1900 meetings: millions of entries.
        assert!(
            scratch.requests.walked <= 4 * created,
            "{} queue entries walked for {created} requests",
            scratch.requests.walked
        );
        let fresh = run_trial(&config, &source, policy, 5);
        assert_eq!(out.final_replicas, fresh.final_replicas);
        let (a, b) = (&out.metrics, &fresh.metrics);
        assert_eq!(a.requests_created, b.requests_created);
        assert_eq!(a.immediate_hits, b.immediate_hits);
        assert_eq!(a.unfulfilled, b.unfulfilled);
        assert_eq!(a.fulfillments(), b.fulfillments());
        assert_eq!(a.observed_rate_series(), b.observed_rate_series());
    }

    #[test]
    fn snapshots_cover_all_bins() {
        let config = small_config(5, 2);
        let source = ContactSource::homogeneous(8, 0.05, 1_000.0);
        let out = run_trial(&config, &source, PolicyKind::qcr_default(), 9);
        // bin = 100 → 10 snapshots, all finite.
        let series = out.metrics.expected_utility_series();
        assert_eq!(series.len(), 10);
        assert!(series.iter().all(|v| v.is_finite()), "{series:?}");
    }

    #[test]
    fn batched_stream_is_bit_identical_to_direct_consumption() {
        for batch in [1, 3, DEFAULT_BATCH] {
            let mut rng = Xoshiro256::seed_from_u64(11);
            let direct: Vec<ContactEvent> =
                ContactStream::poisson(20, 0.02, 1_000.0, rng.split(2)).collect();
            let mut rng = Xoshiro256::seed_from_u64(11);
            let stream = ContactStream::poisson(20, 0.02, 1_000.0, rng.split(2));
            let mut batched = BatchedContacts::with_batch(stream, batch);
            let mut got = Vec::new();
            while let Some(peeked) = batched.peek() {
                let next = batched.next().unwrap();
                assert_eq!(peeked, next);
                got.push(next);
            }
            assert_eq!(got, direct, "batch size {batch}");
            assert!(batched.next().is_none());

            // Slice consumption yields the same sequence; a slice taken
            // after a single event is the rest of that event's batch (a
            // fresh batch when that was all of it).
            let mut rng = Xoshiro256::seed_from_u64(11);
            let stream = ContactStream::poisson(20, 0.02, 1_000.0, rng.split(2));
            let mut batched = BatchedContacts::with_batch(stream, batch);
            let mut got = vec![batched.next().unwrap()];
            let rest = batched.next_batch();
            assert_eq!(rest.len(), (batch - 1).max(1));
            got.extend_from_slice(rest);
            loop {
                let slice = batched.next_batch();
                if slice.is_empty() {
                    break;
                }
                assert!(slice.len() <= batch);
                got.extend_from_slice(slice);
            }
            assert_eq!(got, direct, "batch size {batch}, by slices");
            assert!(batched.peek().is_none() && batched.next_batch().is_empty());
        }
    }

    mod quiet_runs {
        use super::*;
        use crate::faults::{CacheFaults, Churn, ContactDrop, FaultConfig};
        use impatience_core::demand::DemandProfile;
        use impatience_obs::{Event, MemorySink};
        use proptest::prelude::*;

        const NODES: usize = 8;
        const ITEMS: usize = 6;
        const RHO: usize = 2;
        const DURATION: f64 = 300.0;
        const BIN: f64 = 50.0;
        const SHIFTS: [f64; 2] = [90.0, 210.0];

        fn config(shifts: bool, faults: bool, dedicated: bool) -> SimConfig {
            let demand = |alpha| Popularity::pareto(ITEMS, alpha).demand_rates(0.4);
            let mut builder = SimConfig::builder(ITEMS, RHO)
                .demand(demand(1.0))
                .utility(Arc::new(Step::new(20.0)))
                .bin(BIN);
            if shifts {
                builder = builder
                    .demand_shift(SHIFTS[0], demand(0.2))
                    .demand_shift(SHIFTS[1], demand(2.0));
            }
            if faults {
                builder = builder.faults(FaultConfig {
                    seed: 3,
                    drop: Some(ContactDrop {
                        p: 0.2,
                        mean_burst: 2.0,
                    }),
                    cache: Some(CacheFaults { rate: 0.01 }),
                    churn: Some(Churn {
                        mean_up: 150.0,
                        mean_down: 30.0,
                    }),
                    ..FaultConfig::default()
                });
            }
            if dedicated {
                builder = builder
                    .dedicated_servers(4)
                    .profile(DemandProfile::uniform(ITEMS, NODES - 4));
            }
            builder.build()
        }

        fn policies(config: &SimConfig) -> Vec<PolicyKind> {
            let servers = config.dedicated_servers.unwrap_or(NODES);
            vec![
                PolicyKind::Static {
                    label: "UNI",
                    counts: uniform(ITEMS, servers, RHO),
                },
                // Pinned to the top items: the tail's requests can never
                // be served.
                PolicyKind::Static {
                    label: "DOM",
                    counts: impatience_core::prelude::dominant(&config.demand, servers, RHO),
                },
                PolicyKind::qcr_default(),
                PolicyKind::Passive { replicas: 1.0 },
                PolicyKind::HillClimb,
            ]
        }

        /// Every lane of `policies` on `source`, each against a recorder
        /// from `rec`, `drive` taking a lane through each batch: the
        /// outcomes as bits (metrics in their checkpoint encoding, floats
        /// as bit patterns) beside the recorders.
        fn outcomes<S: Sink>(
            config: &SimConfig,
            source: &ContactSource,
            seed: u64,
            policies: &[PolicyKind],
            rec: impl Fn() -> Recorder<S>,
            drive: impl Fn(&mut Lane<'_, S>, &[ContactEvent]),
        ) -> Vec<(String, Recorder<S>)> {
            let policies: Vec<&PolicyKind> = policies.iter().collect();
            let mut recs: Vec<_> = policies.iter().map(|_| rec()).collect();
            let mut scratches: Vec<_> = policies.iter().map(|_| TrialScratch::new()).collect();
            let outcomes = drive_lanes(
                config,
                source,
                seed,
                &policies,
                &mut recs,
                &mut scratches,
                drive,
            );
            outcomes
                .into_iter()
                .zip(recs)
                .map(|((outcome, _), rec)| {
                    let outcome = outcome.unwrap_or_else(|panic| resume_unwind(panic));
                    let bits = format!(
                        "{} {} {:?}",
                        outcome.label,
                        outcome.metrics.to_json(),
                        outcome.final_replicas
                    );
                    (bits, rec)
                })
                .collect()
        }

        /// [`outcomes`] on memory sinks, with each lane's event stream.
        fn lanes(
            config: &SimConfig,
            source: &ContactSource,
            seed: u64,
            policies: &[PolicyKind],
            drive: impl Fn(&mut Lane<'_, MemorySink>, &[ContactEvent]),
        ) -> Vec<(String, Vec<Event>)> {
            let memory = || Recorder::new(MemorySink::new());
            outcomes(config, source, seed, policies, memory, drive)
                .into_iter()
                .map(|(bits, rec)| {
                    // A lane's wall time is the one thing allowed to differ.
                    let events = rec
                        .sink()
                        .events
                        .iter()
                        .map(|e| match *e {
                            Event::TrialDone { seed, .. } => Event::TrialDone { seed, wall_s: 0.0 },
                            ref other => other.clone(),
                        })
                        .collect();
                    (bits, events)
                })
                .collect()
        }

        /// The reference driver: [`Lane::step`] once per contact.
        fn stepped<S: Sink>(lane: &mut Lane<'_, S>, batch: &[ContactEvent]) {
            batch.iter().for_each(|e| lane.step(Some(e)));
        }

        fn batched<S: Sink>(lane: &mut Lane<'_, S>, batch: &[ContactEvent]) {
            lane.batch(batch);
        }

        /// A Poisson trace plus contacts at exactly the times the quiet
        /// check compares against: each arrival and cache fault of a
        /// first run on it (meeting the node concerned and every other
        /// node), each bin start, each shift time and the horizon.
        fn tied_trace(config: &SimConfig, seed: u64, policies: &[PolicyKind]) -> ContactSource {
            let rng = Xoshiro256::seed_from_u64(seed ^ 0x7ace);
            let base = ContactStream::poisson(NODES, 0.02, DURATION, rng).collect_trace();
            let mut events = base.events().to_vec();
            let source = ContactSource::trace(base);
            let mut ties: Vec<(f64, u32)> = (0..)
                .map(|k| k as f64 * BIN)
                .take_while(|&t| t < DURATION)
                .chain(SHIFTS)
                .chain([DURATION])
                .map(|t| (t, 0))
                .collect();
            for (_, recorded) in lanes(config, &source, seed, policies, stepped) {
                ties.extend(recorded.iter().filter_map(|e| match *e {
                    Event::Request { t, node, .. } => Some((t, node)),
                    Event::Fault {
                        t,
                        kind: "cache_fault",
                        node,
                        ..
                    } => Some((t, node)),
                    _ => None,
                }));
            }
            for (t, node) in ties {
                let others = (0..NODES as u32).filter(|&m| m != node);
                events.extend(others.map(|m| ContactEvent::new(t, node, m)));
            }
            ContactSource::trace(ContactTrace::new(NODES, DURATION, events))
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            /// Running contacts straight to the meeting until the lane's
            /// next non-contact event changes nothing: every lane's
            /// outcome and event stream equal those of stepping each
            /// contact through `Lane::step`.
            #[test]
            fn quiet_runs_equal_per_contact_steps(
                seed in 0u64..10_000,
                setting in 0u32..16,
            ) {
                let on = |bit: u32| setting & (1 << bit) != 0;
                let config = config(on(0), on(1), on(2));
                let policies = policies(&config);
                let source = if on(3) {
                    tied_trace(&config, seed, &policies)
                } else {
                    ContactSource::homogeneous(NODES, 0.02, DURATION)
                };
                let want = lanes(&config, &source, seed, &policies, stepped);
                let got = lanes(&config, &source, seed, &policies, batched);
                for (lane, (want, got)) in want.iter().zip(&got).enumerate() {
                    prop_assert!(want.0 == got.0, "lane {}: outcomes differ", lane);
                    prop_assert!(want.1 == got.1, "lane {}: event streams differ", lane);
                }
            }

            /// On an inactive recorder a fault-free lane skips the
            /// meetings of two idle nodes (`Lane::quiet_run`); every
            /// lane's outcome still equals that of stepping each
            /// contact, which never skips.
            #[test]
            fn skipped_meetings_change_nothing(
                seed in 0u64..10_000,
                setting in 0u32..8,
            ) {
                let on = |bit: u32| setting & (1 << bit) != 0;
                let config = config(on(0), false, on(1));
                let policies = policies(&config);
                let source = if on(2) {
                    tied_trace(&config, seed, &policies)
                } else {
                    ContactSource::homogeneous(NODES, 0.02, DURATION)
                };
                let disabled = Recorder::disabled;
                let want = outcomes(&config, &source, seed, &policies, disabled, stepped);
                let got = outcomes(&config, &source, seed, &policies, disabled, batched);
                for (lane, (want, got)) in want.iter().zip(&got).enumerate() {
                    prop_assert!(want.0 == got.0, "lane {}: outcomes differ", lane);
                }
            }
        }
    }

    mod batching {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// Batched consumption is bit-identical to consuming the
            /// stream directly, for any population, rate and batch size,
            /// sampled or replayed.
            #[test]
            fn batched_consumption_matches_direct_streaming(
                seed in 0u64..1_000,
                nodes in 2usize..40,
                mu in 1e-4f64..0.05,
                batch in 1usize..(2 * DEFAULT_BATCH),
            ) {
                let duration = 400.0;
                let direct: Vec<ContactEvent> =
                    ContactStream::poisson(nodes, mu, duration, Xoshiro256::seed_from_u64(seed))
                        .collect();
                let stream =
                    ContactStream::poisson(nodes, mu, duration, Xoshiro256::seed_from_u64(seed));
                let batched: Vec<ContactEvent> =
                    BatchedContacts::with_batch(stream, batch).collect();
                prop_assert_eq!(&batched, &direct);
                // The cursor arm of the refill, over the same events.
                let trace = Arc::new(ContactTrace::new(nodes, duration, direct.clone()));
                let stream = ContactStream::cursor(trace);
                let replayed: Vec<ContactEvent> =
                    BatchedContacts::with_batch(stream, batch).collect();
                prop_assert_eq!(&replayed, &direct);
            }
        }
    }
}
