//! The recorder: the single object instrumented code talks to.

use impatience_json::Json;

use crate::counter::{Counters, Peaks};
use crate::event::Event;
use crate::histogram::Histogram;
use crate::sink::{NoopSink, Sink};

/// Collects counters, histograms, and high-water marks while forwarding
/// structured events to a [`Sink`].
///
/// The sink type decides the cost: with [`NoopSink`] every hook is an
/// inlined early return and the optimizer deletes the instrumentation;
/// with a live sink the recorder tallies and forwards. Simulation code
/// takes `&mut Recorder<S>` generically, so both versions are
/// monomorphized from the same source.
#[derive(Debug)]
pub struct Recorder<S: Sink> {
    sink: S,
    /// Monotonic event counts ("contacts", "fulfillments", ...).
    pub counters: Counters,
    /// High-water marks ("open_requests").
    pub peaks: Peaks,
    /// Fulfillment delays (simulation minutes).
    pub delay: Histogram,
    /// Gaps between successive contacts, across the whole system.
    pub inter_contact: Histogram,
    last_contact: Option<f64>,
}

/// Default histogram span for fulfillment delays (simulation minutes).
const DEFAULT_DELAY_RANGE: f64 = 4_096.0;
/// Default histogram span for inter-contact gaps (simulation minutes).
const DEFAULT_INTER_CONTACT_RANGE: f64 = 512.0;
/// Default bucket count for both histograms.
const DEFAULT_BUCKETS: usize = 4_096;

impl Recorder<NoopSink> {
    /// The zero-cost recorder: hooks compile to nothing.
    pub fn disabled() -> Self {
        Recorder::new(NoopSink)
    }
}

impl<S: Sink> Recorder<S> {
    /// A recorder forwarding to `sink`. An inactive sink can never
    /// record, so its histograms carry the shape and allocate no buckets.
    pub fn new(sink: S) -> Self {
        let histogram = if S::ACTIVE {
            Histogram::new
        } else {
            Histogram::shape_only
        };
        Recorder {
            sink,
            counters: Counters::new(),
            peaks: Peaks::new(),
            delay: histogram(DEFAULT_DELAY_RANGE, DEFAULT_BUCKETS),
            inter_contact: histogram(DEFAULT_INTER_CONTACT_RANGE, DEFAULT_BUCKETS),
            last_contact: None,
        }
    }

    /// Whether this recorder's hooks do anything.
    pub const fn is_active(&self) -> bool {
        S::ACTIVE
    }

    /// The sink, for readout (e.g. `MemorySink::events`).
    pub fn sink(&self) -> &S {
        &self.sink
    }

    /// The sink, mutably.
    pub fn sink_mut(&mut self) -> &mut S {
        &mut self.sink
    }

    /// Consume the recorder and return its sink.
    pub fn into_sink(self) -> S {
        self.sink
    }

    /// A trial is starting: reset per-trial tracking state (the
    /// inter-contact clock), not the accumulated statistics.
    #[inline]
    pub fn trial_start(&mut self) {
        if !S::ACTIVE {
            return;
        }
        self.last_contact = None;
    }

    /// Two nodes met.
    #[inline]
    pub fn contact(&mut self, t: f64, a: u32, b: u32) {
        if !S::ACTIVE {
            return;
        }
        self.counters.incr("contacts");
        if let Some(prev) = self.last_contact {
            self.inter_contact.record(t - prev);
        }
        self.last_contact = Some(t);
        self.sink.record(&Event::Contact { t, a, b });
    }

    /// A request entered the system.
    #[inline]
    pub fn request(&mut self, t: f64, node: u32, item: u32) {
        if !S::ACTIVE {
            return;
        }
        self.counters.incr("requests");
        self.sink.record(&Event::Request { t, node, item });
    }

    /// A request was served from the requester's own cache.
    #[inline]
    pub fn immediate_hit(&mut self, t: f64, node: u32, item: u32) {
        if !S::ACTIVE {
            return;
        }
        self.counters.incr("immediate_hits");
        self.sink.record(&Event::ImmediateHit { t, node, item });
    }

    /// An outstanding request was fulfilled after waiting `wait`.
    #[inline]
    pub fn fulfillment(&mut self, t: f64, node: u32, item: u32, wait: f64, queries: u32) {
        if !S::ACTIVE {
            return;
        }
        self.counters.incr("fulfillments");
        self.delay.record(wait);
        self.sink.record(&Event::Fulfillment {
            t,
            node,
            item,
            wait,
            queries,
        });
    }

    /// A request expired unfulfilled at end of trial.
    #[inline]
    pub fn unfulfilled(&mut self, t: f64, node: u32, item: u32, wait: f64) {
        if !S::ACTIVE {
            return;
        }
        self.counters.incr("unfulfilled");
        self.sink.record(&Event::Unfulfilled {
            t,
            node,
            item,
            wait,
        });
    }

    /// A contact transmitted `count` cache copies.
    #[inline]
    pub fn replications(&mut self, t: f64, count: u64) {
        if !S::ACTIVE || count == 0 {
            return;
        }
        self.counters.add("transmissions", count);
        self.sink.record(&Event::Replication { t, count });
    }

    /// The outstanding-request queue reached `depth`.
    #[inline]
    pub fn open_requests(&mut self, depth: u64) {
        if !S::ACTIVE {
            return;
        }
        self.peaks.update("open_requests", depth);
    }

    /// One solver placement/probe step.
    #[inline]
    pub fn solver_step(&mut self, solver: &'static str, iteration: u64, item: u32, value: f64) {
        if !S::ACTIVE {
            return;
        }
        self.counters.incr("solver_steps");
        self.sink.record(&Event::SolverStep {
            solver,
            iteration,
            item,
            value,
        });
    }

    /// A solver finished.
    #[inline]
    pub fn solver_done(
        &mut self,
        solver: &'static str,
        iterations: u64,
        evaluations: u64,
        wall_s: f64,
    ) {
        if !S::ACTIVE {
            return;
        }
        self.sink.record(&Event::SolverDone {
            solver,
            iterations,
            evaluations,
            wall_s,
        });
    }

    /// One verification-oracle scenario finished with the given
    /// per-invariant tallies.
    #[inline]
    pub fn scenario_done(
        &mut self,
        index: u64,
        passed: u32,
        failed: u32,
        skipped: u32,
        wall_s: f64,
    ) {
        if !S::ACTIVE {
            return;
        }
        self.counters.incr("scenarios");
        self.counters.add("invariant_failures", failed as u64);
        self.sink.record(&Event::ScenarioDone {
            index,
            passed,
            failed,
            skipped,
            wall_s,
        });
    }

    /// One declarative-experiment cell finished (a sweep point, panel,
    /// or table block of an `impatience reproduce` run).
    #[inline]
    pub fn experiment_done(&mut self, spec: &str, cell: &str, rows: u64, wall_s: f64) {
        if !S::ACTIVE {
            return;
        }
        self.counters.incr("experiment_cells");
        self.sink.record(&Event::ExperimentDone {
            spec: spec.to_string(),
            cell: cell.to_string(),
            rows,
            wall_s,
        });
    }

    /// An injected fault fired (`kind` per [`Event::Fault`]).
    #[inline]
    pub fn fault(&mut self, t: f64, kind: &'static str, node: u32, aux: u32) {
        if !S::ACTIVE {
            return;
        }
        self.counters.incr("faults");
        self.sink.record(&Event::Fault { t, kind, node, aux });
    }

    /// A trial finished.
    #[inline]
    pub fn trial_done(&mut self, seed: u64, wall_s: f64) {
        if !S::ACTIVE {
            return;
        }
        self.counters.incr("trials");
        self.sink.record(&Event::TrialDone { seed, wall_s });
    }

    /// Fold another recorder's statistics into this one (counters,
    /// peaks, histograms). Sinks are not touched — this is how the
    /// parallel runner combines per-worker tallies. Like every hook, a
    /// no-op on an inactive recorder.
    ///
    /// # Panics
    /// Panics if the histogram shapes differ.
    pub fn absorb<S2: Sink>(&mut self, other: &Recorder<S2>) {
        if !S::ACTIVE {
            return;
        }
        self.counters.merge(&other.counters);
        self.peaks.merge(&other.peaks);
        self.delay.merge(&other.delay);
        self.inter_contact.merge(&other.inter_contact);
    }

    /// Statistics summary: counters, peaks, and histogram percentiles.
    pub fn summary_json(&self) -> Json {
        Json::obj([
            ("counters", self.counters.to_json()),
            ("peaks", self.peaks.to_json()),
            ("fulfillment_delay", self.delay.summary_json()),
            ("inter_contact", self.inter_contact.summary_json()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::{MemorySink, TallySink};

    #[test]
    fn disabled_recorder_stays_empty() {
        let mut r = Recorder::disabled();
        assert!(!r.is_active());
        r.contact(1.0, 0, 1);
        r.fulfillment(2.0, 0, 1, 1.0, 2);
        r.replications(2.0, 5);
        r.trial_done(7, 0.1);
        assert!(r.counters.is_empty());
        assert_eq!(r.delay.count(), 0);
    }

    #[test]
    fn live_recorder_tallies_and_forwards() {
        let mut r = Recorder::new(MemorySink::new());
        r.trial_start();
        r.contact(1.0, 0, 1);
        r.contact(3.5, 1, 2);
        r.request(1.2, 0, 4);
        r.fulfillment(3.5, 0, 4, 2.3, 1);
        r.replications(3.5, 2);
        r.replications(3.6, 0); // no-op
        r.open_requests(3);
        r.open_requests(1);
        assert_eq!(r.counters.get("contacts"), 2);
        assert_eq!(r.counters.get("transmissions"), 2);
        assert_eq!(r.peaks.get("open_requests"), 3);
        assert_eq!(r.delay.count(), 1);
        assert_eq!(r.inter_contact.count(), 1); // gap 2.5
        assert!((r.inter_contact.mean().unwrap() - 2.5).abs() < 1e-12);
        let kinds: Vec<_> = r.sink().events.iter().map(Event::kind).collect();
        assert_eq!(
            kinds,
            [
                "contact",
                "contact",
                "request",
                "fulfillment",
                "replication"
            ]
        );
    }

    #[test]
    fn experiment_cells_are_tallied_and_forwarded() {
        let mut r = Recorder::new(MemorySink::new());
        r.experiment_done("fig4", "power alpha=0", 1, 2.5);
        assert_eq!(r.counters.get("experiment_cells"), 1);
        assert!(matches!(
            &r.sink().events[0],
            Event::ExperimentDone { spec, rows: 1, .. } if spec == "fig4"
        ));
    }

    #[test]
    fn trial_start_resets_inter_contact_clock() {
        let mut r = Recorder::new(TallySink);
        r.trial_start();
        r.contact(10.0, 0, 1);
        r.trial_start();
        r.contact(500.0, 0, 1); // must not record a 490-minute gap
        assert_eq!(r.inter_contact.count(), 0);
    }

    #[test]
    fn absorb_merges_worker_tallies() {
        let mut a = Recorder::new(TallySink);
        let mut b = Recorder::new(TallySink);
        a.fulfillment(1.0, 0, 0, 1.0, 1);
        b.fulfillment(2.0, 1, 0, 3.0, 1);
        b.open_requests(9);
        a.absorb(&b);
        assert_eq!(a.counters.get("fulfillments"), 2);
        assert_eq!(a.delay.count(), 2);
        assert_eq!(a.peaks.get("open_requests"), 9);
    }

    #[test]
    fn summary_json_shape() {
        let mut r = Recorder::new(TallySink);
        r.fulfillment(1.0, 0, 0, 2.0, 1);
        let s = r.summary_json();
        assert_eq!(
            s.get("counters")
                .unwrap()
                .get("fulfillments")
                .and_then(Json::as_u64),
            Some(1)
        );
        assert!(s
            .get("fulfillment_delay")
            .unwrap()
            .get("p50")
            .unwrap()
            .as_f64()
            .is_some());
    }
}
