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
//! Those mechanics are written once, as the crate-private `Trial` frame
//! (`begin`, `request`, `meeting`, `finish`), and two drivers feed it
//! events: the lane driver below (Poisson arrivals merged with a contact
//! stream, with demand shifts) and the slot loop of
//! [`crate::engine_discrete`]. [`crate::sharded`] keeps its own frame —
//! its exchange is the eager walk, for the reasons at
//! [`RequestArena::retain`].
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
use impatience_core::utility::DelayUtility;
use impatience_obs::{Recorder, Sink};
use impatience_traces::ContactEvent;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use crate::config::{ContactSource, SimConfig};
use crate::contact_bin::BatchedContacts;
use crate::faults::FaultState;
use crate::metrics::Metrics;
use crate::policy::{Fulfillment, PolicyKind, ReplicationPolicy};
use crate::state::{RequestArena, SimState};

/// Reusable per-trial working storage: the SoA cache/replica state, the
/// pending-request arena, and the per-contact fulfillment buffers.
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

/// The gain booked for a request still outstanding, `age` after its
/// creation, when its trial ends (or its deadline expires). For
/// utilities bounded below (step, exponential: h(∞) finite) the
/// pessimistic h(∞) is booked — exact for never-fulfillable requests,
/// slightly conservative otherwise. For unbounded waiting costs (power
/// α < 1) the cost already accrued, h(age), is booked: h(∞) = −∞ cannot
/// be, and plain censoring would flatter item-starving allocations like
/// DOM, which never serve the catalog's tail at all.
pub fn settlement_gain(utility: &dyn DelayUtility, age: f64) -> f64 {
    let h_inf = utility.h_infinity();
    if h_inf.is_finite() {
        h_inf
    } else {
        utility.h(age)
    }
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

/// The frame of one trial, shared by the event-driven and the slotted
/// driver: everything that happens *to* a request or *at* a meeting,
/// whatever clock the events come from. A driver stamps each request
/// with an `f64` of its own clock (a time, or a slot number — exact in an
/// `f64`) and converts stamps back to waits and ages.
pub(crate) struct Trial<'a, S: Sink> {
    config: &'a SimConfig,
    rec: &'a mut Recorder<S>,
    scratch: &'a mut TrialScratch,
    policy: Box<dyn ReplicationPolicy>,
    label: String,
    faults: Option<FaultState>,
    /// First client node id (dedicated populations: after the servers).
    client_base: usize,
    duration: f64,
    seed: u64,
    wall_start: Option<std::time::Instant>,
    open_requests: u64,
    pub(crate) metrics: Metrics,
    /// The trial RNG: demand, initial placement and the policy draw from
    /// it; contacts and faults run on streams of their own.
    pub(crate) rng: Xoshiro256,
}

impl<'a, S: Sink> Trial<'a, S> {
    /// Reset `scratch`, build and initialize the policy, arm the fault
    /// model. `config` is already resolved for `nodes`
    /// ([`SimConfig::try_resolved`]); `rng` has already seeded the
    /// contact stream; `mu_ref` is the source's reference contact rate.
    #[allow(clippy::too_many_arguments)] // one trial's whole context
    pub(crate) fn begin(
        config: &'a SimConfig,
        policy: &PolicyKind,
        nodes: usize,
        mu_ref: f64,
        duration: f64,
        mut rng: Xoshiro256,
        seed: u64,
        rec: &'a mut Recorder<S>,
        scratch: &'a mut TrialScratch,
    ) -> Self {
        let wall_start = rec.is_active().then(std::time::Instant::now);
        rec.trial_start();
        // Population shape: pure P2P (every node serves) or dedicated
        // (nodes 0..servers carry caches, the rest only request).
        let servers = config.dedicated_servers.unwrap_or(nodes);
        scratch
            .state
            .reset(nodes, servers, config.items, config.rho);
        scratch.state.set_eviction(config.eviction);
        scratch.requests.reset_indexed(nodes, config.items);
        scratch.fulfilled.clear();
        let protocol_utility = config
            .protocol_utility
            .clone()
            .unwrap_or_else(|| config.utility.clone());
        let mut policy_obj = policy.instantiate(
            protocol_utility,
            nodes,
            servers,
            mu_ref,
            config.items,
            config.rho,
            &config.demand,
        );
        policy_obj.initialize(&mut scratch.state, &mut rng);
        // Fault injection: the schedule runs on RNG streams derived from the
        // trial seed and the fault seed only, never from `rng` — attaching an
        // *inactive* FaultConfig leaves the trajectory bit-for-bit unchanged.
        let faults = config
            .faults
            .as_ref()
            .and_then(|f| f.for_trial(seed))
            .map(|f| FaultState::new(f, nodes, servers, duration, seed));
        Trial {
            config,
            rec,
            scratch,
            policy: policy_obj,
            label: policy.label(),
            faults,
            client_base: config.dedicated_servers.unwrap_or(0),
            duration,
            seed,
            wall_start,
            open_requests: 0,
            metrics: Metrics::new(duration, config.bin),
            rng,
        }
    }

    /// Fire the cache-slot faults due by `t`. Drivers call this before
    /// the event at `t`: an immediate hit, a contact fulfillment or a
    /// snapshot must see the degraded caches.
    pub(crate) fn cache_faults(&mut self, t: f64) {
        if let Some(fs) = self.faults.as_mut() {
            fs.apply_cache_faults(t, &mut self.scratch.state, &mut self.metrics, self.rec);
        }
    }

    /// Record the bin-start snapshot at `t` under `demand`.
    pub(crate) fn snapshot(&mut self, t: f64, system: &SystemModel, demand: &DemandRates) {
        let _s = impatience_obs::span!("snapshot");
        self.metrics.record_snapshot(
            t,
            &self.scratch.state.replicas,
            system,
            demand,
            self.config.utility.as_ref(),
        );
    }

    /// A request for `item` arrives at time `t`: draw its origin, then
    /// serve it from the origin's own cache or queue it under `stamp`.
    pub(crate) fn request(&mut self, t: f64, stamp: f64, item: u32) {
        let origin = self
            .config
            .profile
            .sample_origin(item as usize, &mut self.rng);
        let node = self.client_base + origin;
        self.metrics.requests_created += 1;
        self.rec.request(t, node as u32, item);
        if self.scratch.state.caches.holds(node, item) {
            self.metrics.immediate_hits += 1;
            self.metrics
                .record_fulfillment(t, self.config.utility.h_zero());
            self.rec.immediate_hit(t, node as u32, item);
        } else {
            self.scratch.requests.push(node, item, stamp);
            if self.rec.is_active() {
                self.open_requests += 1;
                self.rec.open_requests(self.open_requests);
            }
        }
    }

    /// Nodes `a` and `b` meet at time `t`: unless the fault model drops
    /// the contact, each serves the other's pending requests (`wait`
    /// turns a request's stamp into its waiting time), then the policy
    /// replicates.
    pub(crate) fn meeting(&mut self, t: f64, a: u32, b: u32, wait: impl Fn(f64) -> f64) {
        if let Some(fs) = self.faults.as_mut() {
            if !fs.admit_contact(t, a, b, &mut self.metrics, self.rec) {
                return;
            }
        }
        self.rec.contact(t, a, b);
        let TrialScratch {
            state,
            requests,
            fulfilled,
            waits,
            gains,
        } = &mut *self.scratch;
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
            }
            // Batched gain evaluation: one virtual `h_batch` call per
            // fulfilling meeting instead of one `h` dispatch per
            // fulfillment; the per-element `w > 0` branch and
            // recording order match the scalar path exactly.
            waits.clear();
            waits.extend(fulfilled.iter().map(|f| f.wait));
            gains.clear();
            self.config.utility.h_batch(waits, gains);
            for &gain in gains.iter() {
                self.metrics.record_fulfillment(t, gain);
            }
            if self.rec.is_active() {
                for f in fulfilled.iter() {
                    self.rec
                        .fulfillment(t, f.node as u32, f.item, f.wait, f.queries as u32);
                }
                self.open_requests -= fulfilled.len() as u64;
            }
        }
        exchange_span.close();
        let _policy_span = impatience_obs::span!("policy");
        let transmissions_before = state.transmissions;
        self.policy
            .after_contact(t, a, b, state, fulfilled, &mut self.metrics, &mut self.rng);
        self.rec
            .replications(t, state.transmissions - transmissions_before);
    }

    /// Settle the requests still outstanding at the horizon (`age` turns
    /// a request's stamp into the time it has waited) and close the books.
    pub(crate) fn finish(self, age: impl Fn(f64) -> f64) -> TrialOutcome {
        let wall_s = self
            .wall_start
            .map_or(0.0, |start| start.elapsed().as_secs_f64());
        self.finish_timed(wall_s, age)
    }

    /// [`Trial::finish`] for a driver that keeps the trial's clock itself
    /// (a lane runs interleaved with others: its time is not the time
    /// since `begin`).
    fn finish_timed(mut self, wall_s: f64, age: impl Fn(f64) -> f64) -> TrialOutcome {
        let _settle_span = impatience_obs::span!("settle");
        let TrialScratch {
            state, requests, ..
        } = self.scratch;
        self.metrics.unfulfilled = requests.len();
        for (node, item, created) in requests.iter() {
            let age = age(created).max(f64::MIN_POSITIVE);
            let gain = settlement_gain(self.config.utility.as_ref(), age);
            self.metrics.record_settlement(self.duration, gain);
            self.rec.unfulfilled(self.duration, node as u32, item, age);
        }
        self.metrics.transmissions = state.transmissions;
        self.rec.trial_done(self.seed, wall_s);
        TrialOutcome {
            metrics: self.metrics,
            // Clone rather than take: the scratch state stays structurally
            // sound for the next trial's reset.
            final_replicas: state.replicas.clone(),
            label: self.label,
        }
    }
}

/// [`run_trial_observed`] reusing caller-owned working storage: the
/// one-lane call of the lane driver.
pub fn run_trial_observed_scratch<S: Sink>(
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

/// One policy's trial riding a shared contact sequence: the `Trial` plus
/// the state of its own arrival process (Poisson request arrivals, demand
/// shifts taking effect in between) and snapshot clock.
struct Lane<'a, S: Sink> {
    trial: Trial<'a, S>,
    /// Demand may shift over time (§7's evolving-demand extension); the
    /// active segment drives arrivals, item sampling, and snapshots.
    shifts: std::iter::Peekable<std::slice::Iter<'a, (f64, DemandRates)>>,
    current_demand: &'a DemandRates,
    total_rate: f64,
    item_sampler: Option<AliasTable>,
    snapshot_system: Option<SystemModel>,
    next_request: f64,
    next_snapshot: f64,
}

impl<'a, S: Sink> Lane<'a, S> {
    /// Begin the trial and draw its first arrival. Arguments as for
    /// [`Trial::begin`].
    #[allow(clippy::too_many_arguments)] // one trial's whole context
    fn begin(
        config: &'a SimConfig,
        policy: &PolicyKind,
        nodes: usize,
        mu_ref: f64,
        duration: f64,
        rng: Xoshiro256,
        seed: u64,
        rec: &'a mut Recorder<S>,
        scratch: &'a mut TrialScratch,
    ) -> Self {
        let mut trial = Trial::begin(
            config, policy, nodes, mu_ref, duration, rng, seed, rec, scratch,
        );
        let total_rate = config.demand.total();
        Lane {
            next_request: if total_rate > 0.0 {
                trial.rng.exp(total_rate)
            } else {
                f64::INFINITY
            },
            trial,
            shifts: config.demand_shifts.iter().peekable(),
            current_demand: &config.demand,
            total_rate,
            item_sampler: (total_rate > 0.0).then(|| AliasTable::new(config.demand.rates())),
            snapshot_system: (mu_ref > 0.0).then(|| match config.dedicated_servers {
                Some(k) => SystemModel::dedicated(nodes - k, k, config.rho, mu_ref),
                None => SystemModel::pure_p2p(nodes, config.rho, mu_ref),
            }),
            next_snapshot: 0.0,
        }
    }

    /// Bin-start snapshots due by `until`.
    fn snapshots(&mut self, until: f64) {
        while self.next_snapshot <= until && self.next_snapshot < self.trial.duration {
            if let Some(system) = &self.snapshot_system {
                self.trial
                    .snapshot(self.next_snapshot, system, self.current_demand);
            }
            self.next_snapshot += self.trial.config.bin;
        }
    }

    /// Everything this lane does up to and including `contact` — or,
    /// given none, up to the horizon: demand shifts, snapshots, cache
    /// faults and the requests that arrive first, then the meeting.
    fn step(&mut self, contact: Option<&ContactEvent>) {
        let next_contact_t = contact.map_or(f64::INFINITY, |e| e.time);
        loop {
            let t = self.next_request.min(next_contact_t);
            // Demand shifts due before the next event take effect first: the
            // arrival process restarts (memorylessly) with the new rates.
            if let Some(&&(shift_t, ref rates)) = self.shifts.peek() {
                if shift_t <= t.min(self.trial.duration) {
                    self.shifts.next();
                    self.current_demand = rates;
                    self.total_rate = rates.total();
                    self.item_sampler =
                        (self.total_rate > 0.0).then(|| AliasTable::new(rates.rates()));
                    self.next_request = if self.total_rate > 0.0 {
                        shift_t + self.trial.rng.exp(self.total_rate)
                    } else {
                        f64::INFINITY
                    };
                    continue;
                }
            }
            if !t.is_finite() || t > self.trial.duration {
                return;
            }
            self.snapshots(t);
            self.trial.cache_faults(t);

            if self.next_request <= next_contact_t {
                let _s = impatience_obs::span!("request");
                let sampler = self.item_sampler.as_ref().expect("arrivals imply demand");
                let item = sampler.sample(&mut self.trial.rng) as u32;
                self.trial
                    .request(self.next_request, self.next_request, item);
                self.next_request += self.trial.rng.exp(self.total_rate);
            } else {
                let _s = impatience_obs::span!("contact");
                let e = contact.expect("a finite contact time");
                self.trial
                    .meeting(e.time, e.a, e.b, |created| e.time - created);
                return;
            }
        }
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
        let duration = self.trial.duration;
        self.trial
            .finish_timed(wall_s, |created| duration - created)
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
/// `scratches[i]`, and yields what `run_trial_observed_scratch` on the same
/// arguments would, bit for bit — or the payload of the panic that killed
/// it, which leaves the other lanes running — together with the wall time
/// spent in it, in seconds.
///
/// The trial RNG is seeded once and seeds the contact stream (one
/// `split`); every lane starts from a copy of it as it stands after that,
/// and draws demand, initial placement and the policy from its copy.
/// Contacts and faults run on streams keyed by the seed alone, and each
/// lane arms its own `FaultState`, so all lanes see the same contacts,
/// drops and outages. Then, a batch of contacts at a time, each lane in
/// turn steps through the whole batch.
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
    assert!(policies.len() == recs.len() && policies.len() == scratches.len());
    // Self-profiling spans (impatience_obs::span) are gated process-wide
    // and cost one relaxed atomic load each when profiling is off; they
    // are independent of the recorder's sink, so `--profile` attributes
    // wall time even on otherwise-unobserved runs.
    let _trial_span = impatience_obs::span!("trial");
    let mut rng = Xoshiro256::seed_from_u64(seed);
    // Contacts arrive `DEFAULT_BATCH` at a time in a reusable buffer, so
    // the hot loop touches no allocator and no enum dispatch per event.
    let mut contacts = BatchedContacts::new(source.stream(&mut rng));
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
                Lane::begin(
                    config, policy, nodes, mu_ref, duration, rng, seed, rec, scratch,
                )
            })
        })
        .collect();
    loop {
        let batch = contacts.next_batch();
        if batch.is_empty() {
            break;
        }
        for lane in &mut lanes {
            lane.step(|lane| batch.iter().for_each(|e| lane.step(Some(e))));
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
}
