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

use std::borrow::Cow;

use impatience_core::rng::Xoshiro256;
use impatience_core::types::SystemModel;
use impatience_obs::{Recorder, Sink};
use impatience_traces::ContactStream;

use crate::config::{ContactSource, SimConfig};
use crate::contact_bin::BatchedContacts;
use crate::faults::FaultState;
use crate::metrics::Metrics;
use crate::policy::{Fulfillment, PolicyKind};
use crate::state::{RequestArena, SimState};

/// Reusable per-trial working storage: the SoA cache/replica state, the
/// pending-request arenas of both engines, and the per-contact
/// fulfillment buffer.
///
/// A trial begins by `reset`-ing each piece to its freshly-constructed
/// state, so results are bit-identical whether a scratch is fresh or
/// reused — the runner keeps one per worker thread and threads it
/// through every trial, eliminating the per-trial allocation churn that
/// previously dominated `trial` self-time in campaign profiles.
#[derive(Debug, Default)]
pub struct TrialScratch {
    pub(crate) state: SimState,
    pub(crate) requests: RequestArena<f64>,
    pub(crate) slot_requests: RequestArena<u64>,
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
/// uninstrumented path pays nothing — see the `observability_overhead`
/// criterion group.
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

/// [`run_trial_observed`] reusing caller-owned working storage.
pub fn run_trial_observed_scratch<S: Sink>(
    config: &SimConfig,
    source: &ContactSource,
    policy: PolicyKind,
    seed: u64,
    rec: &mut Recorder<S>,
    scratch: &mut TrialScratch,
) -> TrialOutcome {
    let mut rng = Xoshiro256::seed_from_u64(seed);
    let contacts = source.stream(&mut rng);
    run_trial_core(
        config,
        source.mean_rate(),
        contacts,
        policy,
        rng,
        seed,
        rec,
        scratch,
    )
}

/// [`run_trial`] through the materialized (seed-era) pipeline: the
/// trial's contact stream is drained into an in-memory trace first, then
/// replayed through a zero-copy cursor.
///
/// [`ContactSource::stream`] and [`ContactSource::realize`] consume the
/// trial RNG identically, so this produces **bit-for-bit** the same
/// [`TrialOutcome`] as [`run_trial`] on the same seed — it exists as the
/// regression reference for the streaming path and as the comparison
/// subject of the `contact_pipeline` benchmark.
pub fn run_trial_materialized(
    config: &SimConfig,
    source: &ContactSource,
    policy: PolicyKind,
    seed: u64,
) -> TrialOutcome {
    let mut rng = Xoshiro256::seed_from_u64(seed);
    let trace = source.realize(&mut rng);
    run_trial_core(
        config,
        source.mean_rate(),
        ContactStream::cursor(trace),
        policy,
        rng,
        seed,
        &mut Recorder::disabled(),
        &mut TrialScratch::new(),
    )
}

/// The event loop shared by the streaming and materialized entry points:
/// `rng` has already seeded the contact stream, `mu_ref` is the source's
/// reference rate for the homogeneous welfare approximation, `scratch`
/// supplies (and retains for reuse) all per-trial working storage.
#[allow(clippy::too_many_arguments)] // internal plumbing shared by 4 public entry points
fn run_trial_core<S: Sink>(
    config: &SimConfig,
    mu_ref: f64,
    contacts: ContactStream,
    policy: PolicyKind,
    mut rng: Xoshiro256,
    seed: u64,
    rec: &mut Recorder<S>,
    scratch: &mut TrialScratch,
) -> TrialOutcome {
    // Self-profiling spans (impatience_obs::span) are gated process-wide
    // and cost one relaxed atomic load each when profiling is off; they
    // are independent of the recorder's sink, so `--profile` attributes
    // wall time even on otherwise-unobserved runs.
    let _trial_span = impatience_obs::span!("trial");
    let wall_start = rec.is_active().then(std::time::Instant::now);
    rec.trial_start();
    let mut open_requests: u64 = 0;
    // Consume contacts through the compact binary batch format: the
    // sampler encodes `DEFAULT_BATCH` fixed-width records ahead into a
    // reusable buffer, so the hot loop touches no allocator and no
    // enum dispatch per event. Bit-identical to direct consumption —
    // see `contact_bin`.
    let mut contacts = BatchedContacts::new(contacts);
    let nodes = contacts.nodes();
    let duration = contacts.duration();
    // Borrow the caller's config when its profile already fits `nodes`
    // (the common case) instead of deep-cloning demand + profile + shifts
    // once per trial.
    let config: Cow<'_, SimConfig> = if config.profile.nodes() == config.clients(nodes) {
        Cow::Borrowed(config)
    } else {
        Cow::Owned(config.for_nodes(nodes))
    };
    config.validate(nodes);

    // Population shape: pure P2P (every node serves) or dedicated
    // (nodes 0..servers carry caches, the rest only request).
    let servers = config.dedicated_servers.unwrap_or(nodes);
    let client_base = if config.dedicated_servers.is_some() {
        servers
    } else {
        0
    };
    let TrialScratch {
        state,
        requests,
        fulfilled,
        waits,
        gains,
        ..
    } = scratch;
    state.reset(
        nodes,
        config.dedicated_servers.unwrap_or(nodes),
        config.items,
        config.rho,
    );
    state.set_eviction(config.eviction);
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
    policy_obj.initialize(state, &mut rng);

    // Fault injection: the schedule runs on RNG streams derived from the
    // trial seed and the fault seed only, never from `rng` — attaching an
    // *inactive* FaultConfig leaves the trajectory bit-for-bit unchanged.
    if let Some(f) = &config.faults {
        assert!(
            !f.panic_on_seeds.contains(&seed),
            "fault injection: chaos panic for trial seed {seed}"
        );
    }
    let mut faults = config
        .faults
        .as_ref()
        .filter(|f| f.is_active())
        .map(|f| FaultState::new(f, nodes, servers, duration, seed));

    let mut metrics = Metrics::new(duration, config.bin);
    // Demand may shift over time (§7's evolving-demand extension); the
    // active segment drives arrivals, item sampling, and snapshots.
    let mut shifts = config.demand_shifts.iter().peekable();
    let mut current_demand = &config.demand;
    let mut total_rate = current_demand.total();
    let mut item_sampler =
        (total_rate > 0.0).then(|| impatience_core::rng::AliasTable::new(current_demand.rates()));
    let snapshot_system = if mu_ref > 0.0 {
        Some(match config.dedicated_servers {
            Some(k) => SystemModel::dedicated(nodes - k, k, config.rho, mu_ref),
            None => SystemModel::pure_p2p(nodes, config.rho, mu_ref),
        })
    } else {
        None
    };

    requests.reset_indexed(nodes, config.items);
    fulfilled.clear();
    let mut next_request = if total_rate > 0.0 {
        rng.exp(total_rate)
    } else {
        f64::INFINITY
    };
    let mut next_snapshot = 0.0;

    loop {
        // Lazy contact-stream sampling happens inside peek/next.
        let next_contact_t = {
            let _s = impatience_obs::span!("stream");
            contacts.peek().map_or(f64::INFINITY, |e| e.time)
        };
        let t = next_request.min(next_contact_t);
        // Demand shifts due before the next event take effect first: the
        // arrival process restarts (memorylessly) with the new rates.
        if let Some(&&(shift_t, ref rates)) = shifts.peek() {
            if shift_t <= t.min(duration) {
                shifts.next();
                current_demand = rates;
                total_rate = current_demand.total();
                item_sampler = (total_rate > 0.0)
                    .then(|| impatience_core::rng::AliasTable::new(current_demand.rates()));
                next_request = if total_rate > 0.0 {
                    shift_t + rng.exp(total_rate)
                } else {
                    f64::INFINITY
                };
                continue;
            }
        }
        if !t.is_finite() || t > duration {
            break;
        }
        // Bin-start snapshots due before this event.
        while next_snapshot <= t && next_snapshot < duration {
            if let Some(system) = &snapshot_system {
                let _s = impatience_obs::span!("snapshot");
                metrics.record_snapshot(
                    next_snapshot,
                    &state.replicas,
                    system,
                    current_demand,
                    config.utility.as_ref(),
                );
            }
            next_snapshot += config.bin;
        }
        // Cache-slot faults due by this event fire first: an immediate
        // hit or a contact fulfillment must see the degraded caches.
        if let Some(fs) = faults.as_mut() {
            fs.apply_cache_faults(t, state, &mut metrics, rec);
        }

        if next_request <= next_contact_t {
            // --- request creation ---
            let _s = impatience_obs::span!("request");
            let sampler = item_sampler.as_ref().expect("arrivals imply demand");
            let item = sampler.sample(&mut rng) as u32;
            let node = client_base + config.profile.sample_origin(item as usize, &mut rng);
            metrics.requests_created += 1;
            rec.request(next_request, node as u32, item);
            if state.caches.holds(node, item) {
                metrics.immediate_hits += 1;
                metrics.record_fulfillment(next_request, config.utility.h_zero());
                rec.immediate_hit(next_request, node as u32, item);
            } else {
                requests.push(node, item, next_request);
                if rec.is_active() {
                    open_requests += 1;
                    rec.open_requests(open_requests);
                }
            }
            next_request += rng.exp(total_rate);
        } else {
            // --- contact ---
            let _s = impatience_obs::span!("contact");
            let e = contacts.next().expect("peeked above");
            if let Some(fs) = faults.as_mut() {
                if !fs.admit_contact(e.time, e.a, e.b, &mut metrics, rec) {
                    continue;
                }
            }
            let (a, b) = (e.a as usize, e.b as usize);
            rec.contact(e.time, e.a, e.b);
            fulfilled.clear();
            let exchange_span = impatience_obs::span!("exchange");
            for (n, m) in [(a, b), (b, a)] {
                requests.meet(n, state.caches.node(m), |item, created, queries| {
                    fulfilled.push(Fulfillment {
                        node: n,
                        item,
                        queries,
                        wait: e.time - created,
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
                config.utility.h_batch(waits, gains);
                for &gain in gains.iter() {
                    metrics.record_fulfillment(e.time, gain);
                }
                if rec.is_active() {
                    for f in fulfilled.iter() {
                        rec.fulfillment(e.time, f.node as u32, f.item, f.wait, f.queries as u32);
                    }
                    open_requests -= fulfilled.len() as u64;
                }
            }
            exchange_span.close();
            let _policy_span = impatience_obs::span!("policy");
            let transmissions_before = state.transmissions;
            policy_obj.after_contact(e.time, a, b, state, fulfilled, &mut metrics, &mut rng);
            rec.replications(e.time, state.transmissions - transmissions_before);
        }
    }

    // Trailing snapshots after the last event.
    while next_snapshot < duration {
        if let Some(system) = &snapshot_system {
            let _s = impatience_obs::span!("snapshot");
            metrics.record_snapshot(
                next_snapshot,
                &state.replicas,
                system,
                current_demand,
                config.utility.as_ref(),
            );
        }
        next_snapshot += config.bin;
    }

    let _settle_span = impatience_obs::span!("settle");
    metrics.unfulfilled = requests.len();
    // Settle requests still outstanding at the horizon. For utilities
    // bounded below (step, exponential: h(∞) finite) the pessimistic
    // h(∞) is booked — exact for never-fulfillable requests, slightly
    // conservative otherwise. For unbounded waiting costs (power α < 1)
    // the cost already accrued, h(age), is booked: h(∞) = −∞ cannot be,
    // and plain censoring would flatter item-starving allocations like
    // DOM, which never serve the catalog's tail at all.
    let h_inf = config.utility.h_infinity();
    for (node, item, created) in requests.iter() {
        let age = (duration - created).max(f64::MIN_POSITIVE);
        let gain = if h_inf.is_finite() {
            h_inf
        } else {
            config.utility.h(age)
        };
        metrics.record_settlement(duration, gain);
        rec.unfulfilled(duration, node as u32, item, age);
    }
    metrics.transmissions = state.transmissions;
    if let Some(start) = wall_start {
        rec.trial_done(seed, start.elapsed().as_secs_f64());
    }
    TrialOutcome {
        metrics,
        // Clone rather than take: the scratch state stays structurally
        // sound for the next trial's reset.
        final_replicas: state.replicas.clone(),
        label: policy.label(),
    }
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
    fn streaming_matches_materialized_bit_for_bit() {
        // The tentpole regression: lazily sampled contacts must drive the
        // exact trajectory a pre-materialized trace does, on every shared
        // seed, for both source kinds.
        let config = small_config(10, 2);
        let homogeneous = ContactSource::homogeneous(10, 0.05, 1_000.0);
        let mut trace_rng = Xoshiro256::seed_from_u64(99);
        let fixed = ContactSource::trace(impatience_traces::gen::poisson_homogeneous(
            10,
            0.05,
            1_000.0,
            &mut trace_rng,
        ));
        for source in [&homogeneous, &fixed] {
            for seed in [0u64, 7, 41] {
                let lazy = run_trial(&config, source, PolicyKind::qcr_default(), seed);
                let mat = run_trial_materialized(&config, source, PolicyKind::qcr_default(), seed);
                assert_eq!(lazy.final_replicas, mat.final_replicas, "seed {seed}");
                assert_eq!(lazy.label, mat.label);
                let (a, b) = (&lazy.metrics, &mat.metrics);
                assert_eq!(a.requests_created, b.requests_created, "seed {seed}");
                assert_eq!(a.immediate_hits, b.immediate_hits);
                assert_eq!(a.unfulfilled, b.unfulfilled);
                assert_eq!(a.transmissions, b.transmissions);
                assert_eq!(a.fulfillments(), b.fulfillments());
                assert_eq!(a.observed_rate_series(), b.observed_rate_series());
            }
        }
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
