//! The discrete-time contact model (§3.4): "the system evolves in a
//! synchronous manner, in a sequence of time slots with duration δ. For
//! each time slot, we assume node contacts occur independently with
//! probability μ·δ."
//!
//! The paper's own simulator was discrete-time; this engine provides the
//! same semantics so that the discrete→continuous convergence claimed in
//! §3.4 can be validated *end to end* (not only at the welfare formulas —
//! see `welfare::social_welfare_homogeneous_discrete` for that level).
//!
//! Only the homogeneous pure-P2P population is supported (the setting of
//! the paper's analysis); trace replay and dedicated populations use the
//! event-driven [`crate::engine`].

use impatience_core::rng::Xoshiro256;
use impatience_core::types::SystemModel;
use impatience_obs::{Recorder, Sink};
use impatience_traces::SlotContactStream;

use crate::config::SimConfig;
use crate::engine::{Demand, Frame, Trial, TrialOutcome, TrialScratch};
use crate::policy::PolicyKind;
use crate::streams;

/// Parameters of a slotted homogeneous run.
#[derive(Clone, Copy, Debug)]
pub struct DiscreteSource {
    /// Number of (pure-P2P) nodes.
    pub nodes: usize,
    /// Pairwise contact rate μ (per unit time).
    pub mu: f64,
    /// Slot duration δ; each pair meets per slot with probability μ·δ.
    pub delta: f64,
    /// Number of slots to simulate.
    pub slots: u64,
}

impl DiscreteSource {
    /// Total simulated time `slots·δ`.
    pub fn duration(&self) -> f64 {
        self.slots as f64 * self.delta
    }

    /// The lazy slot-contact stream for one trial: each pair meets in
    /// each slot independently with probability `μ·δ`, sampled in
    /// O(contacts) by geometric skipping. Runs on its own generator
    /// forked from `rng`, so the trial's demand randomness is untouched
    /// by how many contacts occur.
    ///
    /// # Panics
    /// Panics unless `μ·δ < 1`.
    pub fn stream(&self, rng: &mut Xoshiro256) -> SlotContactStream {
        SlotContactStream::new(
            self.nodes,
            self.mu * self.delta,
            self.slots,
            streams::slots(rng),
        )
    }
}

/// Run one slotted trial. Waits are multiples of δ; gains are `h(k·δ)`
/// for a request fulfilled `k ≥ 1` slots after creation (within-slot
/// fulfillment earns `h(δ)`, matching the discrete welfare convention of
/// Eq. 2/4 where the leading term is `h(δ)`).
///
/// This is the slotted driver of the engine's trial frame, with the
/// hooks of [`crate::engine::run_trial_observed`] (compiled away for
/// [`Recorder::disabled`]); requests are stamped with their slot number.
///
/// # Panics
/// Panics unless `μ·δ < 1` (it must be a probability) and the config is
/// valid for a pure-P2P population of `source.nodes` nodes.
pub fn run_trial_discrete<S: Sink>(
    config: &SimConfig,
    source: &DiscreteSource,
    policy: PolicyKind,
    seed: u64,
    rec: &mut Recorder<S>,
) -> TrialOutcome {
    // Same span vocabulary as the continuous engine (root "trial" with
    // request/contact/exchange/policy children), so phase trees from
    // either engine line up in `trace diff`.
    let _trial_span = impatience_obs::span!("trial");
    assert!(
        source.delta > 0.0 && source.mu * source.delta < 1.0,
        "need μδ < 1 (got {})",
        source.mu * source.delta
    );
    assert!(
        config.dedicated_servers.is_none() && config.demand_shifts.is_empty(),
        "the discrete engine models the paper's plain homogeneous pure-P2P setting"
    );
    let DiscreteSource {
        nodes,
        mu,
        delta,
        slots,
    } = *source;
    let config = config.try_resolved(nodes).unwrap_or_else(|e| panic!("{e}"));

    let mut rng = streams::trial(seed);
    let mut contacts = source.stream(&mut rng);
    let mut scratch = TrialScratch::new();
    let (frame, policy) = Frame::begin(
        &config,
        &policy,
        nodes,
        mu,
        source.duration(),
        rng,
        seed,
        rec,
        &mut scratch.state,
    );
    let mut trial = Trial::new(frame, policy, &mut scratch);
    let (demand, total_rate) = (Demand::new(&config), config.demand.total());
    let snapshot_system = SystemModel::pure_p2p(nodes, config.rho, mu);
    let snapshot_every = (config.bin / delta).max(1.0) as u64;

    for slot in 0..slots {
        let (now, stamp) = (slot as f64 * delta, slot as f64);
        trial.cache_faults(now);
        if slot % snapshot_every == 0 {
            trial.snapshot(now, &snapshot_system, demand.rates());
        }

        // --- arrivals this slot (Poisson with mean total_rate·δ) ---
        if total_rate > 0.0 {
            let _s = impatience_obs::span!("request");
            for _ in 0..trial.frame.rng.poisson(total_rate * delta) {
                let item = demand.sample(&mut trial.frame.rng);
                trial.request(now, stamp, item);
            }
        }

        // --- synchronous contacts: each pair independently w.p. μδ,
        //     drawn lazily from the slot stream in pair order ---
        while contacts.peek_slot() == Some(slot) {
            let _s = impatience_obs::span!("contact");
            let c = contacts.next().expect("peeked above");
            // Waited at least one slot by convention (so every wait is
            // ≥ δ > 0 and the gain batch always takes its `h(w)` arm).
            trial.meeting(now, c.a, c.b, |created| (stamp - created).max(1.0) * delta);
        }
    }
    trial.finish(None, |created| (slots as f64 - created) * delta)
}

#[cfg(test)]
mod tests {
    use super::*;
    use impatience_core::demand::Popularity;
    use impatience_core::prelude::greedy_homogeneous;
    use impatience_core::utility::Step;
    use std::sync::Arc;

    fn config(items: usize, rho: usize) -> SimConfig {
        SimConfig::builder(items, rho)
            .demand(Popularity::pareto(items, 1.0).demand_rates(1.0))
            .utility(Arc::new(Step::new(10.0)))
            .bin(100.0)
            .warmup_fraction(0.3)
            .build()
    }

    #[test]
    fn deterministic_and_conserves_budget() {
        let config = config(10, 2);
        let source = DiscreteSource {
            nodes: 10,
            mu: 0.05,
            delta: 0.5,
            slots: 2_000,
        };
        let a = run_trial_discrete(
            &config,
            &source,
            PolicyKind::qcr_default(),
            4,
            &mut Recorder::disabled(),
        );
        let b = run_trial_discrete(
            &config,
            &source,
            PolicyKind::qcr_default(),
            4,
            &mut Recorder::disabled(),
        );
        assert_eq!(a.final_replicas, b.final_replicas);
        let total: u32 = a.final_replicas.iter().sum();
        assert_eq!(total, 20);
        assert!(a.metrics.fulfillments() > 0);
    }

    #[test]
    fn discrete_approaches_continuous_as_delta_shrinks() {
        // §3.4's convergence claim, end to end: the slotted simulation of
        // a pinned OPT allocation approaches the event-driven one.
        let items = 20;
        let nodes = 20;
        let rho = 3;
        let mu = 0.05;
        let config = config(items, rho);
        let system = SystemModel::pure_p2p(nodes, rho, mu);
        let opt = greedy_homogeneous(&system, &config.demand, &Step::new(10.0));
        let policy = PolicyKind::Static {
            label: "OPT",
            counts: opt,
        };

        let duration = 4_000.0;
        let continuous = {
            let source = crate::config::ContactSource::homogeneous(nodes, mu, duration);
            let mut acc = 0.0;
            for seed in 0..4 {
                acc += crate::engine::run_trial(&config, &source, policy.clone(), seed)
                    .metrics
                    .average_observed_rate(0.3);
            }
            acc / 4.0
        };
        let discrete_at = |delta: f64| {
            let source = DiscreteSource {
                nodes,
                mu,
                delta,
                slots: (duration / delta) as u64,
            };
            let mut acc = 0.0;
            for seed in 0..4 {
                acc += run_trial_discrete(
                    &config,
                    &source,
                    policy.clone(),
                    seed,
                    &mut Recorder::disabled(),
                )
                .metrics
                .average_observed_rate(0.3);
            }
            acc / 4.0
        };
        let coarse = discrete_at(4.0);
        let fine = discrete_at(0.25);
        assert!(
            (fine - continuous).abs() < (coarse - continuous).abs() + 0.02,
            "δ=0.25 ({fine}) should be no farther from continuous ({continuous}) than δ=4 ({coarse})"
        );
        assert!(
            (fine - continuous).abs() < 0.05 * continuous.abs(),
            "fine-δ discrete ({fine}) vs continuous ({continuous})"
        );
    }

    #[test]
    fn qcr_converges_in_discrete_time_too() {
        let config = config(20, 3);
        let source = DiscreteSource {
            nodes: 20,
            mu: 0.05,
            delta: 1.0,
            slots: 4_000,
        };
        let qcr = run_trial_discrete(
            &config,
            &source,
            PolicyKind::qcr_default(),
            9,
            &mut Recorder::disabled(),
        );
        // Popular items hold more replicas than the tail at steady state.
        let head: u32 = qcr.final_replicas[..3].iter().sum();
        let tail: u32 = qcr.final_replicas[17..].iter().sum();
        assert!(head > tail, "head {head} vs tail {tail}");
    }

    #[test]
    fn observed_discrete_trial_matches_plain_run() {
        use impatience_obs::TallySink;

        let config = config(10, 2);
        let source = DiscreteSource {
            nodes: 10,
            mu: 0.05,
            delta: 0.5,
            slots: 2_000,
        };
        let plain = run_trial_discrete(
            &config,
            &source,
            PolicyKind::qcr_default(),
            4,
            &mut Recorder::disabled(),
        );
        let mut rec = Recorder::new(TallySink);
        let observed = run_trial_discrete(&config, &source, PolicyKind::qcr_default(), 4, &mut rec);
        assert_eq!(plain.final_replicas, observed.final_replicas);
        assert_eq!(
            plain.metrics.fulfillments(),
            observed.metrics.fulfillments()
        );
        assert_eq!(
            rec.counters.get("requests"),
            observed.metrics.requests_created
        );
        assert_eq!(
            rec.counters.get("transmissions"),
            observed.metrics.transmissions
        );
        assert_eq!(
            rec.counters.get("unfulfilled"),
            observed.metrics.unfulfilled
        );
        assert_eq!(rec.delay.count(), rec.counters.get("fulfillments"));
    }

    #[test]
    fn engine_contacts_equal_independent_stream_on_same_seed() {
        // Stream/engine equivalence: the contacts the engine processes
        // are exactly what the seed's forked slot stream yields —
        // deriving the stream independently reproduces them bit-for-bit.
        use impatience_obs::{Event, MemorySink};

        let config = config(10, 2);
        let source = DiscreteSource {
            nodes: 10,
            mu: 0.05,
            delta: 0.5,
            slots: 2_000,
        };
        let seed = 4;
        let mut rec = Recorder::new(MemorySink::new());
        let _ = run_trial_discrete(&config, &source, PolicyKind::qcr_default(), seed, &mut rec);
        let engine_contacts: Vec<(u32, u32, f64)> = rec
            .sink()
            .events
            .iter()
            .filter_map(|e| match *e {
                Event::Contact { t, a, b } => Some((a, b, t)),
                _ => None,
            })
            .collect();

        let mut rng = Xoshiro256::seed_from_u64(seed);
        let expected: Vec<(u32, u32, f64)> = source
            .stream(&mut rng)
            .map(|c| (c.a, c.b, c.slot as f64 * source.delta))
            .collect();
        assert!(!expected.is_empty());
        assert_eq!(engine_contacts, expected);
    }

    #[test]
    #[should_panic(expected = "μδ < 1")]
    fn rejects_nonprobability_slot() {
        let config = config(5, 2);
        let source = DiscreteSource {
            nodes: 5,
            mu: 0.5,
            delta: 3.0,
            slots: 10,
        };
        let _ = run_trial_discrete(
            &config,
            &source,
            PolicyKind::qcr_default(),
            0,
            &mut Recorder::disabled(),
        );
    }
}
