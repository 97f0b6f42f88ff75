//! Seeded, deterministic fault injection.
//!
//! The paper's engines simulate a *clean* opportunistic network: every
//! contact in the trace happens, every cache slot survives the whole
//! trial. This module degrades that world on purpose, so Eq. (1) welfare
//! and the Table-1 utility families can be measured under the regimes
//! related work actually observes — node churn, lossy contacts, cache
//! contention, and truncated measurement traces.
//!
//! Four independent fault processes, all driven by streams of the fault
//! root ([`crate::streams`]), never by the trial's demand generator, so
//! an *inactive* process leaves the trajectory bit-for-bit identical to a
//! fault-free run:
//!
//! * **server churn** — each node alternates exponentially distributed
//!   up/down periods; a contact involving a down node never happens;
//! * **contact drops** — a Gilbert burst-loss chain over the surviving
//!   contact sequence (mean burst length 1 ⇒ i.i.d. Bernoulli drops);
//! * **cache slot faults** — a Poisson process that erases a uniformly
//!   random non-sticky slot of a uniformly random server;
//! * **trace truncation** — every contact after a fixed fraction of the
//!   horizon is lost (a measurement artifact, not a network process).
//!
//! Every injected fault is reported through the [`Recorder`] hooks
//! (`Event::Fault` in JSONL sinks) and tallied in [`Metrics`], so a
//! degraded run documents its own degradation.

use impatience_core::rng::Xoshiro256;
use impatience_obs::{Recorder, Sink};

use crate::config::ConfigError;
use crate::metrics::Metrics;
use crate::state::SimState;
use crate::streams::{self, CHURN_STREAM_ID};

/// Exponential on/off churn for cache-carrying nodes.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Churn {
    /// Mean length of an *up* period (minutes).
    pub mean_up: f64,
    /// Mean length of a *down* period (minutes).
    pub mean_down: f64,
}

/// Contact loss on the contact stream.
///
/// With `mean_burst = 1` each surviving contact is dropped
/// independently with probability `p`; with `mean_burst = L > 1` drops
/// arrive in geometric bursts of mean length `L` whose stationary drop
/// probability is still `p` (Gilbert model).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ContactDrop {
    /// Stationary drop probability.
    pub p: f64,
    /// Mean burst length (contacts), ≥ 1.
    pub mean_burst: f64,
}

/// The Gilbert chain behind [`ContactDrop`]: a two-state Markov chain
/// stepped once per surviving contact, which shares the fate of the
/// state the step lands in. The serial [`FaultState`] owns one per
/// trial and the sharded engine one per contact lane.
#[derive(Clone, Debug)]
pub(crate) struct GilbertChain {
    drop: ContactDrop,
    in_burst: bool,
    rng: Xoshiro256,
}

impl GilbertChain {
    /// A chain warmed with one `bernoulli(p)` draw, so its first
    /// decision is already stationary.
    pub(crate) fn new(drop: ContactDrop, mut rng: Xoshiro256) -> Self {
        let in_burst = rng.bernoulli(drop.p);
        GilbertChain {
            drop,
            in_burst,
            rng,
        }
    }

    /// Take one transition; `true` means this contact is dropped.
    #[inline]
    pub(crate) fn step(&mut self) -> bool {
        let ContactDrop { p, mean_burst } = self.drop;
        if self.in_burst {
            if self.rng.bernoulli(1.0 / mean_burst) {
                self.in_burst = false;
            }
        } else if self.rng.bernoulli(p / (mean_burst * (1.0 - p))) {
            self.in_burst = true;
        }
        self.in_burst
    }
}

/// Random cache-slot failures.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CacheFaults {
    /// Slot failures per server per minute.
    pub rate: f64,
}

/// Message-layer faults for the distributed runtime (`impatience-net`).
///
/// The in-process engines exchange no messages, so this family is inert
/// there by construction: attaching it leaves every engine trajectory
/// bit-for-bit unchanged (its RNG streams fork from the fault base seed,
/// never from the trial's demand generator). The `crates/net` transport
/// consumes it to drop, duplicate, and reorder wire messages.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct MsgFaults {
    /// Probability that a sent message is silently lost.
    pub loss_p: f64,
    /// Probability that a delivered message arrives twice.
    pub dup_p: f64,
    /// Maximum reorder window, in units of the base message delay: each
    /// delivery is delayed by an extra `U(0, reorder_window) × delay`,
    /// so messages up to `reorder_window` "slots" apart can swap order.
    /// `0` preserves FIFO ordering per link.
    pub reorder_window: u32,
}

impl MsgFaults {
    /// Whether any message-layer process is active; an all-zero config
    /// is the identity transport.
    pub fn is_active(&self) -> bool {
        self.loss_p > 0.0 || self.dup_p > 0.0 || self.reorder_window > 0
    }
}

/// The full fault model attached to a [`crate::SimConfig`].
///
/// `Default` is the empty model: no process active, engines behave
/// exactly as without a `FaultConfig`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultConfig {
    /// Fault-model seed, mixed with each trial's seed so a campaign's
    /// fault schedule is reproducible but decorrelated across trials.
    pub seed: u64,
    /// Server churn, if any.
    pub churn: Option<Churn>,
    /// Contact loss, if any.
    pub drop: Option<ContactDrop>,
    /// Cache slot failures, if any.
    pub cache: Option<CacheFaults>,
    /// Lose every contact after this fraction of the horizon (in (0, 1]).
    pub truncate_fraction: Option<f64>,
    /// Message-layer faults. Consumed only by the `impatience-net`
    /// transport; the in-process engines ignore it entirely, so an
    /// engine run with `msg` attached is bit-identical to one without.
    pub msg: Option<MsgFaults>,
    /// Chaos hook: trials run with any of these seeds panic at startup.
    /// Exercises the campaign runner's skip-and-report path in tests.
    pub panic_on_seeds: Vec<u64>,
}

impl FaultConfig {
    /// Whether any fault process is active.
    pub fn is_active(&self) -> bool {
        self.churn.is_some()
            || self.drop.is_some()
            || self.cache.is_some()
            || self.truncate_fraction.is_some()
            || self.msg.is_some_and(|m| m.is_active())
            || !self.panic_on_seeds.is_empty()
    }

    /// The model as it applies to the trial with seed `trial_seed`:
    /// `None` when no fault process is active.
    ///
    /// # Panics
    /// Panics for the seeds in [`FaultConfig::panic_on_seeds`] — the
    /// chaos hook every runtime honours at trial start.
    pub fn for_trial(&self, trial_seed: u64) -> Option<&FaultConfig> {
        assert!(
            !self.panic_on_seeds.contains(&trial_seed),
            "fault injection: chaos panic for trial seed {trial_seed}"
        );
        self.is_active().then_some(self)
    }

    /// Validate the fault parameters.
    pub fn validate(&self) -> Result<(), ConfigError> {
        let bad = |message: String| Err(ConfigError::InvalidFaults { message });
        if let Some(churn) = self.churn {
            let ok = |x: f64| x > 0.0 && x.is_finite();
            if !ok(churn.mean_up) || !ok(churn.mean_down) {
                return bad(format!(
                    "churn mean_up/mean_down must be positive and finite \
                     (got {} / {})",
                    churn.mean_up, churn.mean_down
                ));
            }
        }
        if let Some(drop) = self.drop {
            if !(0.0..1.0).contains(&drop.p) {
                return bad(format!(
                    "drop probability must be in [0, 1) (got {})",
                    drop.p
                ));
            }
            if !(drop.mean_burst >= 1.0 && drop.mean_burst.is_finite()) {
                return bad(format!(
                    "mean burst length must be ≥ 1 (got {})",
                    drop.mean_burst
                ));
            }
            // Gilbert enter-probability p/(L(1−p)) must be a probability.
            let limit = drop.mean_burst / (drop.mean_burst + 1.0);
            if drop.p > limit {
                return bad(format!(
                    "drop probability {} exceeds L/(L+1) = {limit} for mean burst \
                     length {}; increase mean_burst or lower p",
                    drop.p, drop.mean_burst
                ));
            }
        }
        if let Some(cache) = self.cache {
            if !(cache.rate >= 0.0 && cache.rate.is_finite()) {
                return bad(format!(
                    "cache fault rate must be finite and ≥ 0 (got {})",
                    cache.rate
                ));
            }
        }
        if let Some(f) = self.truncate_fraction {
            if !(f > 0.0 && f <= 1.0) {
                return bad(format!("truncate fraction must be in (0, 1] (got {f})"));
            }
        }
        if let Some(m) = self.msg {
            if !(0.0..1.0).contains(&m.loss_p) {
                return bad(format!(
                    "message loss probability must be in [0, 1) (got {})",
                    m.loss_p
                ));
            }
            if !(0.0..1.0).contains(&m.dup_p) {
                return bad(format!(
                    "message duplication probability must be in [0, 1) (got {})",
                    m.dup_p
                ));
            }
        }
        Ok(())
    }

    /// One-line summary for manifests and checkpoint fingerprints.
    pub fn summary(&self) -> String {
        let mut parts = vec![format!("seed={}", self.seed)];
        if let Some(c) = self.churn {
            parts.push(format!("churn={}/{}", c.mean_up, c.mean_down));
        }
        if let Some(d) = self.drop {
            parts.push(format!("drop={}x{}", d.p, d.mean_burst));
        }
        if let Some(c) = self.cache {
            parts.push(format!("cache={}", c.rate));
        }
        if let Some(f) = self.truncate_fraction {
            parts.push(format!("truncate={f}"));
        }
        if let Some(m) = self.msg {
            parts.push(format!("msg={}/{}/{}", m.loss_p, m.dup_p, m.reorder_window));
        }
        parts.join(",")
    }

    /// The precomputed churn toggle schedule for one trial, as
    /// `(time, node, up)` triples sorted by time. This is exactly the
    /// schedule [`FaultState`] plays back inside the engines, exported so
    /// the distributed runtime can crash and restart *its* node tasks at
    /// the same instants the engine would suppress their contacts —
    /// identical discipline, identical seeds, identical worker-count
    /// independence.
    pub fn churn_schedule(
        &self,
        nodes: usize,
        duration: f64,
        trial_seed: u64,
    ) -> Vec<(f64, u32, bool)> {
        let mut fault = streams::fault(trial_seed, self.seed);
        churn_toggles(self.churn, nodes, duration, &mut fault)
    }
}

/// Safety cap on the total precomputed churn toggles per trial: beyond
/// it a node simply stays in its last state (pathological mean times
/// would otherwise eat the heap).
const MAX_TOGGLES: usize = 200_000;

/// `churn`'s toggles over `nodes` nodes before `duration`, as time-ordered
/// `(time, node, up)`: each node alternates exponential up and down
/// periods on its own stream, forked off `base` in node order (which
/// advances `base`). No churn, no toggles and no fork.
fn churn_toggles(
    churn: Option<Churn>,
    nodes: usize,
    duration: f64,
    base: &mut Xoshiro256,
) -> Vec<(f64, u32, bool)> {
    let mut toggles = Vec::new();
    let Some(churn) = churn else {
        return toggles;
    };
    let up_rate = 1.0 / churn.mean_up;
    let down_rate = 1.0 / churn.mean_down;
    for node in 0..nodes {
        let mut rng = streams::churn(base, CHURN_STREAM_ID ^ node as u64);
        let mut t = rng.exp(up_rate);
        let mut up = false; // first toggle goes down
        while t < duration && toggles.len() < MAX_TOGGLES {
            toggles.push((t, node as u32, up));
            t += rng.exp(if up { up_rate } else { down_rate });
            up = !up;
        }
    }
    toggles.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    toggles
}

/// The Poisson clock of cache-slot faults: arrivals at `rate` per server
/// per minute, each on a uniformly random server, whose slot is then
/// erased with the clock's own RNG. The serial [`FaultState`] owns one
/// per trial; the sharded engine owns one and drives it at its epoch
/// boundaries.
#[derive(Clone, Debug)]
pub(crate) struct SlotFaultClock {
    /// Time of the next fault (∞ when inactive).
    next: f64,
    /// Total rate over all servers.
    rate: f64,
    rng: Xoshiro256,
    servers: usize,
}

impl SlotFaultClock {
    /// The clock of `cache` faults over `servers` servers, its first
    /// arrival drawn from `rng`.
    pub(crate) fn new(cache: Option<CacheFaults>, servers: usize, mut rng: Xoshiro256) -> Self {
        let rate = cache.map_or(0.0, |c| c.rate) * servers as f64;
        let next = if rate > 0.0 {
            rng.exp(rate)
        } else {
            f64::INFINITY
        };
        SlotFaultClock {
            next,
            rate,
            rng,
            servers,
        }
    }

    /// The next fault due by `t`, if any: its time and server, and the
    /// RNG that picks the slot it erases. The clock advances past it.
    #[inline]
    pub(crate) fn due(&mut self, t: f64) -> Option<(f64, usize, &mut Xoshiro256)> {
        if self.next > t {
            return None;
        }
        let when = self.next;
        self.next += self.rng.exp(self.rate);
        let node = self.rng.index(self.servers);
        Some((when, node, &mut self.rng))
    }
}

/// Per-trial fault state, owned by the engine event loop.
///
/// All randomness comes from the fault root's streams, forked at
/// construction in [`crate::streams`]' order — the schedule is a pure
/// function of `(FaultConfig, nodes, servers, duration, trial_seed)` and
/// therefore identical at any worker count.
#[derive(Clone, Debug)]
pub struct FaultState {
    /// Merged churn schedule, `(time, node, up)` in time order; `cursor`
    /// advances through it.
    toggles: Vec<(f64, u32, bool)>,
    cursor: usize,
    node_up: Vec<bool>,
    drop: Option<GilbertChain>,
    cache: SlotFaultClock,
    /// Contacts after this time are lost.
    truncate_at: f64,
    truncation_reported: bool,
}

impl FaultState {
    /// Build the trial's fault schedule. `servers` is the number of
    /// cache-carrying nodes (they occupy node ids `0..servers` in both
    /// engines); churn applies to all `nodes`.
    pub fn new(
        cfg: &FaultConfig,
        nodes: usize,
        servers: usize,
        duration: f64,
        trial_seed: u64,
    ) -> FaultState {
        let mut base = streams::fault(trial_seed, cfg.seed);
        let toggles = churn_toggles(cfg.churn, nodes, duration, &mut base);
        let (drop_rng, cache_rng) = streams::drops_and_cache(&mut base);
        FaultState {
            toggles,
            cursor: 0,
            node_up: vec![true; nodes],
            drop: cfg.drop.map(|drop| GilbertChain::new(drop, drop_rng)),
            cache: SlotFaultClock::new(cfg.cache, servers, cache_rng),
            truncate_at: cfg
                .truncate_fraction
                .map_or(f64::INFINITY, |f| f * duration),
            truncation_reported: false,
        }
    }

    /// Advance churn to time `t`, emitting the toggles that fired.
    fn advance_churn<S: Sink>(&mut self, t: f64, metrics: &mut Metrics, rec: &mut Recorder<S>) {
        while let Some(&(time, node, up)) = self.toggles.get(self.cursor) {
            if time > t {
                break;
            }
            self.cursor += 1;
            self.node_up[node as usize] = up;
            if up {
                rec.fault(time, "node_up", node, 0);
            } else {
                metrics.node_outages += 1;
                rec.fault(time, "node_down", node, 0);
            }
        }
    }

    /// Decide whether the contact `(a, b)` at time `t` happens. Returns
    /// `false` (and records why) when a fault suppresses it.
    pub fn admit_contact<S: Sink>(
        &mut self,
        t: f64,
        a: u32,
        b: u32,
        metrics: &mut Metrics,
        rec: &mut Recorder<S>,
    ) -> bool {
        if t > self.truncate_at {
            if !self.truncation_reported {
                self.truncation_reported = true;
                rec.fault(self.truncate_at, "trace_truncated", 0, 0);
            }
            metrics.contacts_dropped += 1;
            return false;
        }
        self.advance_churn(t, metrics, rec);
        if !self.node_up[a as usize] || !self.node_up[b as usize] {
            metrics.contacts_dropped += 1;
            return false;
        }
        if self.drop.as_mut().is_some_and(GilbertChain::step) {
            metrics.contacts_dropped += 1;
            rec.fault(t, "contact_drop", a, b);
            return false;
        }
        true
    }

    /// Time of the next cache-slot fault (∞ when none is armed).
    #[inline]
    pub fn next_cache_fault(&self) -> f64 {
        self.cache.next
    }

    /// Apply every cache-slot fault due by time `t`: each erases a
    /// uniformly random non-sticky slot of a uniformly random server.
    pub fn apply_cache_faults<S: Sink>(
        &mut self,
        t: f64,
        state: &mut SimState,
        metrics: &mut Metrics,
        rec: &mut Recorder<S>,
    ) {
        while let Some((when, node, rng)) = self.cache.due(t) {
            if let Some(item) = state.fail_cache_slot(node, rng) {
                metrics.cache_faults += 1;
                rec.fault(when, "cache_fault", node as u32, item);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use impatience_obs::{Event, MemorySink};

    fn drain_faults(rec: &Recorder<MemorySink>) -> Vec<Event> {
        rec.sink().events.clone()
    }

    #[test]
    fn inactive_config_is_inactive() {
        let cfg = FaultConfig::default();
        assert!(!cfg.is_active());
        cfg.validate().unwrap();
        assert_eq!(cfg.summary(), "seed=0");
    }

    #[test]
    fn validation_rejects_bad_parameters() {
        let mut cfg = FaultConfig {
            churn: Some(Churn {
                mean_up: 0.0,
                mean_down: 10.0,
            }),
            ..FaultConfig::default()
        };
        assert!(cfg.validate().is_err());
        cfg.churn = None;
        cfg.drop = Some(ContactDrop {
            p: 0.9,
            mean_burst: 1.0,
        });
        // 0.9 > 1/2: inconsistent with mean burst 1.
        assert!(cfg.validate().is_err());
        cfg.drop = Some(ContactDrop {
            p: 0.9,
            mean_burst: 20.0,
        });
        cfg.validate().unwrap();
        cfg.truncate_fraction = Some(1.5);
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn schedule_is_a_pure_function_of_the_seed() {
        let cfg = FaultConfig {
            seed: 5,
            churn: Some(Churn {
                mean_up: 50.0,
                mean_down: 20.0,
            }),
            drop: Some(ContactDrop {
                p: 0.2,
                mean_burst: 2.0,
            }),
            cache: Some(CacheFaults { rate: 0.01 }),
            ..FaultConfig::default()
        };
        let run = || {
            let mut fs = FaultState::new(&cfg, 10, 10, 1_000.0, 42);
            let mut metrics = Metrics::new(1_000.0, 100.0);
            let mut rec = Recorder::new(MemorySink::new());
            let mut state = SimState::new(10, 5, 2);
            state.seed_sticky_and_fill(&mut Xoshiro256::seed_from_u64(1));
            let mut admitted = Vec::new();
            for k in 0..200u32 {
                let t = k as f64 * 5.0;
                fs.apply_cache_faults(t, &mut state, &mut metrics, &mut rec);
                admitted.push(fs.admit_contact(t, k % 10, (k + 1) % 10, &mut metrics, &mut rec));
            }
            (admitted, drain_faults(&rec), metrics.contacts_dropped)
        };
        let (a1, f1, d1) = run();
        let (a2, f2, d2) = run();
        assert_eq!(a1, a2);
        assert_eq!(f1, f2);
        assert_eq!(d1, d2);
        assert!(d1 > 0, "some contacts should have been suppressed");
        assert!(
            f1.iter()
                .any(|e| matches!(e, Event::Fault { kind, .. } if *kind == "node_down")),
            "churn should have fired"
        );
    }

    #[test]
    fn different_trial_seeds_decorrelate() {
        let cfg = FaultConfig {
            drop: Some(ContactDrop {
                p: 0.3,
                mean_burst: 1.0,
            }),
            ..FaultConfig::default()
        };
        let admitted = |trial_seed: u64| {
            let mut fs = FaultState::new(&cfg, 4, 4, 100.0, trial_seed);
            let mut metrics = Metrics::new(100.0, 10.0);
            let mut rec = Recorder::disabled();
            (0..100u32)
                .map(|k| fs.admit_contact(k as f64, 0, 1, &mut metrics, &mut rec))
                .collect::<Vec<_>>()
        };
        assert_ne!(admitted(1), admitted(2));
    }

    #[test]
    fn truncation_reports_once_and_drops_everything_after() {
        let cfg = FaultConfig {
            truncate_fraction: Some(0.5),
            ..FaultConfig::default()
        };
        let mut fs = FaultState::new(&cfg, 2, 2, 100.0, 0);
        let mut metrics = Metrics::new(100.0, 10.0);
        let mut rec = Recorder::new(MemorySink::new());
        assert!(fs.admit_contact(10.0, 0, 1, &mut metrics, &mut rec));
        assert!(!fs.admit_contact(60.0, 0, 1, &mut metrics, &mut rec));
        assert!(!fs.admit_contact(70.0, 0, 1, &mut metrics, &mut rec));
        let truncations = rec
            .sink()
            .events
            .iter()
            .filter(|e| matches!(e, Event::Fault { kind, .. } if *kind == "trace_truncated"))
            .count();
        assert_eq!(truncations, 1);
        assert_eq!(metrics.contacts_dropped, 2);
    }

    #[test]
    fn drop_rate_is_near_p() {
        let cfg = FaultConfig {
            drop: Some(ContactDrop {
                p: 0.25,
                mean_burst: 3.0,
            }),
            ..FaultConfig::default()
        };
        let mut dropped = 0u32;
        let total = 20_000u32;
        let mut fs = FaultState::new(&cfg, 2, 2, 1e9, 7);
        let mut metrics = Metrics::new(1e9, 1e8);
        let mut rec = Recorder::disabled();
        for k in 0..total {
            if !fs.admit_contact(k as f64, 0, 1, &mut metrics, &mut rec) {
                dropped += 1;
            }
        }
        let rate = dropped as f64 / total as f64;
        assert!((rate - 0.25).abs() < 0.02, "empirical drop rate {rate}");
    }

    #[test]
    fn cache_faults_erase_slots_but_never_sticky() {
        let cfg = FaultConfig {
            cache: Some(CacheFaults { rate: 0.5 }),
            ..FaultConfig::default()
        };
        let mut fs = FaultState::new(&cfg, 4, 4, 1_000.0, 3);
        let mut metrics = Metrics::new(1_000.0, 100.0);
        let mut rec = Recorder::disabled();
        let mut state = SimState::new(4, 4, 2);
        state.seed_sticky_and_fill(&mut Xoshiro256::seed_from_u64(9));
        let before: u32 = state.replicas.iter().sum();
        fs.apply_cache_faults(1_000.0, &mut state, &mut metrics, &mut rec);
        assert!(metrics.cache_faults > 0);
        let after: u32 = state.replicas.iter().sum();
        assert_eq!(before - after, metrics.cache_faults as u32);
        // Sticky replicas survive every fault.
        for item in 0..4 {
            if state.sticky_owner[item] != usize::MAX {
                assert!(
                    state.replicas[item] >= 1,
                    "item {item} lost its sticky copy"
                );
            }
        }
    }
}
