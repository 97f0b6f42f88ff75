//! Lazy contact streams: the allocation-free trial hot path.
//!
//! A trial over `n` nodes and horizon `T` sees O(μ·n²·T) contacts.
//! Materializing them up front (the seed pipeline) costs a Vec of that
//! size, a sort, and an `Arc<ContactTrace>` per trial — gigabytes of
//! transient traffic at the population sizes the related work simulates.
//! [`ContactStream`] replaces the vector with a cursor:
//!
//! * [`PoissonContactStream`] samples homogeneous contacts *on the fly*
//!   by superposition: the union of `P = n(n−1)/2` independent
//!   pair-processes of rate μ is one Poisson process of rate `μ·P` whose
//!   events carry uniformly random pair marks. One exponential gap and
//!   one uniform pair index per event, O(1) memory in the trace length,
//!   and events emerge already time-ordered.
//! * [`ContactStream::cursor`] is a zero-copy iterator over a shared
//!   [`ContactTrace`] for replayed (measured or generated) traces.
//!
//! [`SlotContactStream`] is the discrete-time sibling: per §3.4 each pair
//! meets in each slot independently with probability `μ·δ`, which the
//! stream samples in O(contacts) — not O(slots · pairs) — by skipping
//! geometrically over the flattened slot-major Bernoulli sequence.
//!
//! Determinism contract: a stream is driven by its *own* RNG, forked from
//! the trial seed before any demand randomness is drawn. The same seed
//! therefore produces the identical contact sequence whether the stream
//! is consumed lazily, collected into a trace first, or the trial batch
//! is sharded over any number of worker threads.

use std::sync::Arc;

use impatience_core::rng::Xoshiro256;

use crate::{ContactEvent, ContactTrace};

/// Map a lexicographic pair index `k ∈ [0, n(n−1)/2)` to the unordered
/// pair `(a, b)` with `a < b` (row-major over `a`).
///
/// Inverse triangular numbers via one float sqrt plus an exact integer
/// fix-up, so the decode is O(1) and correct for every `n ≤ u32::MAX`.
pub fn pair_from_index(nodes: usize, k: u64) -> (u32, u32) {
    let n = nodes as u64;
    debug_assert!(k < n * (n - 1) / 2, "pair index {k} out of range");
    // Row a starts at offset(a) = a·(2n − a − 1)/2; invert approximately.
    let offset = |a: u64| a * (2 * n - a - 1) / 2;
    let mut a = {
        let nf = n as f64;
        let disc = (2.0 * nf - 1.0) * (2.0 * nf - 1.0) - 8.0 * k as f64;
        (((2.0 * nf - 1.0 - disc.max(0.0).sqrt()) / 2.0) as i64).clamp(0, n as i64 - 2) as u64
    };
    // Float rounding is at most one row off; walk to the exact row.
    while a > 0 && offset(a) > k {
        a -= 1;
    }
    while a + 2 < n && offset(a + 1) <= k {
        a += 1;
    }
    let b = a + 1 + (k - offset(a));
    (a as u32, b as u32)
}

/// Lazily samples a homogeneous Poisson contact process (rate μ per pair)
/// over `[0, duration]` in time order, holding O(1) state.
#[derive(Clone, Debug)]
pub struct PoissonContactStream {
    nodes: usize,
    total_rate: f64,
    /// −1/total_rate, precomputed: the exponential gap is one `ln` and
    /// one multiply per event instead of an `ln` and a (slow) divide.
    neg_inv_rate: f64,
    duration: f64,
    rng: Xoshiro256,
    lookahead: Option<ContactEvent>,
}

impl PoissonContactStream {
    /// A stream of homogeneous contacts at pairwise rate `mu` over
    /// `nodes` nodes for `duration` time units, driven by `rng`.
    ///
    /// # Panics
    /// Panics unless `mu` is finite and ≥ 0 and `duration` is positive.
    pub fn new(nodes: usize, mu: f64, duration: f64, rng: Xoshiro256) -> Self {
        assert!(mu >= 0.0 && mu.is_finite(), "rate must be finite and ≥ 0");
        assert!(
            duration > 0.0 && duration.is_finite(),
            "duration must be positive"
        );
        let pairs = if nodes < 2 {
            0
        } else {
            nodes as u64 * (nodes as u64 - 1) / 2
        };
        let total_rate = mu * pairs as f64;
        let mut stream = PoissonContactStream {
            nodes,
            total_rate,
            neg_inv_rate: -1.0 / total_rate,
            duration,
            rng,
            lookahead: None,
        };
        stream.lookahead = stream.sample_next(0.0);
        stream
    }

    /// Sample the first superposition event after `t`, if any.
    ///
    /// This is the trial hot path — one `ln`, one multiply, and two
    /// bounded draws per contact. The pair mark is sampled directly
    /// (uniform node `a`, uniform `b ≠ a`, ordered) rather than as a
    /// triangular index through [`pair_from_index`], which costs a float
    /// sqrt; both constructions are exactly uniform over unordered pairs.
    fn sample_next(&mut self, t: f64) -> Option<ContactEvent> {
        if self.total_rate <= 0.0 {
            return None;
        }
        let t = t + self.rng.f64_open().ln() * self.neg_inv_rate;
        if t > self.duration {
            return None;
        }
        let a = self.rng.below(self.nodes as u64) as u32;
        let mut b = self.rng.below(self.nodes as u64 - 1) as u32;
        b += (b >= a) as u32;
        let (a, b) = if a < b { (a, b) } else { (b, a) };
        Some(ContactEvent::new(t, a, b))
    }

    fn advance(&mut self) -> Option<ContactEvent> {
        let event = self.lookahead?;
        self.lookahead = self.sample_next(event.time);
        Some(event)
    }

    /// Append the next (up to) `n` events to `buf`, in one loop: the
    /// events, and the draws behind them, of `n` calls to
    /// `ContactStream::next` on this stream.
    pub fn fill(&mut self, buf: &mut Vec<ContactEvent>, n: usize) {
        buf.reserve(n);
        let mut next = self.lookahead;
        for _ in 0..n {
            let Some(event) = next else {
                break;
            };
            buf.push(event);
            next = self.sample_next(event.time);
        }
        self.lookahead = next;
    }
}

/// A lazy, time-ordered source of [`ContactEvent`]s for one trial.
///
/// Either a [`PoissonContactStream`] (homogeneous contacts sampled on
/// demand) or a zero-copy cursor over a shared [`ContactTrace`].
#[derive(Clone, Debug)]
pub enum ContactStream {
    /// On-the-fly homogeneous Poisson sampling.
    Poisson(PoissonContactStream),
    /// Zero-copy replay of a shared trace.
    Cursor {
        /// The replayed trace (shared across trials, never copied).
        trace: Arc<ContactTrace>,
        /// Index of the next event to yield.
        pos: usize,
    },
}

impl ContactStream {
    /// A homogeneous Poisson stream (see [`PoissonContactStream::new`]).
    pub fn poisson(nodes: usize, mu: f64, duration: f64, rng: Xoshiro256) -> Self {
        ContactStream::Poisson(PoissonContactStream::new(nodes, mu, duration, rng))
    }

    /// A zero-copy cursor over a shared trace.
    pub fn cursor(trace: Arc<ContactTrace>) -> Self {
        ContactStream::Cursor { trace, pos: 0 }
    }

    /// Number of nodes the stream covers.
    pub fn nodes(&self) -> usize {
        match self {
            ContactStream::Poisson(p) => p.nodes,
            ContactStream::Cursor { trace, .. } => trace.nodes(),
        }
    }

    /// Length of the observation window.
    pub fn duration(&self) -> f64 {
        match self {
            ContactStream::Poisson(p) => p.duration,
            ContactStream::Cursor { trace, .. } => trace.duration(),
        }
    }

    /// The next event without consuming it.
    pub fn peek(&self) -> Option<ContactEvent> {
        match self {
            ContactStream::Poisson(p) => p.lookahead,
            ContactStream::Cursor { trace, pos } => trace.events().get(*pos).copied(),
        }
    }

    /// Drain the stream into a materialized trace (the seed pipeline's
    /// shape, kept as the regression/benchmark reference path).
    pub fn collect_trace(self) -> ContactTrace {
        let nodes = self.nodes();
        let duration = self.duration();
        ContactTrace::new(nodes, duration, self.collect())
    }
}

impl Iterator for ContactStream {
    type Item = ContactEvent;

    fn next(&mut self) -> Option<ContactEvent> {
        match self {
            ContactStream::Poisson(p) => p.advance(),
            ContactStream::Cursor { trace, pos } => {
                let event = trace.events().get(*pos).copied();
                *pos += event.is_some() as usize;
                event
            }
        }
    }
}

/// Lazy discrete-time contacts (§3.4): each of the `P` pairs meets in
/// each of the `slots` slots independently with probability `p = μ·δ`.
///
/// The `slots · P` Bernoulli trials form one long i.i.d. sequence in
/// slot-major order; the stream jumps between successes with geometric
/// gaps, so sampling costs O(contacts) instead of O(slots · P) and holds
/// O(1) state.
#[derive(Clone, Debug)]
pub struct SlotContactStream {
    nodes: usize,
    pairs: u64,
    slots: u64,
    /// ln(1 − p), cached for the geometric inversions (0 ⇒ p = 0).
    ln_q: f64,
    /// Flattened index of the next candidate Bernoulli trial.
    pos: u64,
    rng: Xoshiro256,
    lookahead: Option<SlotContact>,
}

/// One discrete-time contact: pair `(a, b)` met during `slot`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SlotContact {
    /// The slot index in `[0, slots)`.
    pub slot: u64,
    /// First node of the pair (`a < b`).
    pub a: u32,
    /// Second node of the pair.
    pub b: u32,
}

impl SlotContactStream {
    /// A stream over `nodes` nodes and `slots` slots with per-pair,
    /// per-slot contact probability `p`.
    ///
    /// # Panics
    /// Panics unless `0 ≤ p < 1` (it is a probability, and `p = 1` would
    /// mean every pair meets every slot — not a sparse contact process).
    pub fn new(nodes: usize, p: f64, slots: u64, rng: Xoshiro256) -> Self {
        assert!((0.0..1.0).contains(&p), "need 0 ≤ p < 1 (got {p})");
        let pairs = if nodes < 2 {
            0
        } else {
            nodes as u64 * (nodes as u64 - 1) / 2
        };
        let mut stream = SlotContactStream {
            nodes,
            pairs,
            slots,
            ln_q: (1.0 - p).ln(),
            pos: 0,
            rng,
            lookahead: None,
        };
        stream.lookahead = stream.sample_next();
        stream
    }

    /// Jump to the next success of the flattened Bernoulli sequence.
    fn sample_next(&mut self) -> Option<SlotContact> {
        if self.ln_q == 0.0 || self.pairs == 0 {
            return None; // p = 0: no pair ever meets
        }
        let total = self.slots.checked_mul(self.pairs).unwrap_or_else(|| {
            panic!(
                "trial too long: {} slots x {} pairs overflows u64",
                self.slots, self.pairs
            )
        });
        // Geometric(p) failures before the next success.
        let skip = (self.rng.f64_open().ln() / self.ln_q).floor();
        if skip >= (total - self.pos) as f64 {
            self.pos = total;
            return None;
        }
        let idx = self.pos + skip as u64;
        self.pos = idx + 1;
        let (a, b) = pair_from_index(self.nodes, idx % self.pairs);
        Some(SlotContact {
            slot: idx / self.pairs,
            a,
            b,
        })
    }

    /// Slot of the next contact without consuming it.
    pub fn peek_slot(&self) -> Option<u64> {
        self.lookahead.map(|c| c.slot)
    }
}

impl Iterator for SlotContactStream {
    type Item = SlotContact;

    fn next(&mut self) -> Option<SlotContact> {
        let contact = self.lookahead?;
        self.lookahead = self.sample_next();
        Some(contact)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TraceStats;

    #[test]
    fn pair_decode_is_exact_inverse() {
        for nodes in [2usize, 3, 5, 17, 100, 1000] {
            let mut k = 0u64;
            for a in 0..nodes as u32 {
                for b in (a + 1)..nodes as u32 {
                    assert_eq!(pair_from_index(nodes, k), (a, b), "n={nodes} k={k}");
                    k += 1;
                }
            }
        }
    }

    #[test]
    fn poisson_stream_is_sorted_in_window_and_deterministic() {
        let rng = Xoshiro256::seed_from_u64(7);
        let stream = ContactStream::poisson(12, 0.1, 500.0, rng.clone());
        let events: Vec<ContactEvent> = stream.collect();
        assert!(!events.is_empty());
        for w in events.windows(2) {
            assert!(w[0].time <= w[1].time);
        }
        for e in &events {
            assert!(e.time <= 500.0 && e.b < 12 && e.a < e.b);
        }
        let again: Vec<ContactEvent> = ContactStream::poisson(12, 0.1, 500.0, rng).collect();
        assert_eq!(events, again, "same rng must give the same stream");
    }

    #[test]
    fn poisson_stream_recovers_rate() {
        let rng = Xoshiro256::seed_from_u64(8);
        let trace = ContactStream::poisson(20, 0.05, 10_000.0, rng).collect_trace();
        let stats = TraceStats::from_trace(&trace);
        assert!(
            (stats.rates().mean_rate() - 0.05).abs() < 0.002,
            "estimated {}",
            stats.rates().mean_rate()
        );
        // Per-pair rates are uniform-ish: no pair should be starved.
        let mut min_rate = f64::INFINITY;
        for a in 0..20 {
            for b in (a + 1)..20 {
                min_rate = min_rate.min(stats.rates().rate(a, b));
            }
        }
        assert!(min_rate > 0.02, "some pair starved ({min_rate})");
    }

    #[test]
    fn collect_trace_equals_lazy_iteration() {
        let rng = Xoshiro256::seed_from_u64(9);
        let collected = ContactStream::poisson(8, 0.2, 300.0, rng.clone()).collect_trace();
        let lazy: Vec<ContactEvent> = ContactStream::poisson(8, 0.2, 300.0, rng).collect();
        assert_eq!(collected.events(), lazy.as_slice());
    }

    #[test]
    fn cursor_replays_trace_and_peeks() {
        let trace = Arc::new(ContactTrace::new(
            4,
            100.0,
            vec![ContactEvent::new(10.0, 0, 1), ContactEvent::new(20.0, 2, 3)],
        ));
        let stream = ContactStream::cursor(Arc::clone(&trace));
        assert_eq!(stream.nodes(), 4);
        assert_eq!(stream.duration(), 100.0);
        assert_eq!(stream.peek().unwrap().time, 10.0);
        assert_eq!(stream.peek().unwrap().time, 10.0, "peek must not consume");
        let events: Vec<ContactEvent> = stream.collect();
        assert_eq!(events.as_slice(), trace.events());
    }

    #[test]
    fn empty_streams_yield_nothing() {
        let rng = Xoshiro256::seed_from_u64(1);
        assert_eq!(
            ContactStream::poisson(5, 0.0, 100.0, rng.clone()).count(),
            0
        );
        assert_eq!(
            ContactStream::poisson(1, 0.5, 100.0, rng.clone()).count(),
            0
        );
        assert_eq!(SlotContactStream::new(5, 0.0, 100, rng.clone()).count(), 0);
        assert_eq!(SlotContactStream::new(1, 0.5, 100, rng).count(), 0);
    }

    #[test]
    fn slot_stream_is_slot_ordered_and_in_range() {
        let rng = Xoshiro256::seed_from_u64(11);
        let contacts: Vec<SlotContact> = SlotContactStream::new(10, 0.1, 200, rng).collect();
        assert!(!contacts.is_empty());
        for w in contacts.windows(2) {
            assert!(
                w[0].slot < w[1].slot
                    || (w[0].slot == w[1].slot && (w[0].a, w[0].b) < (w[1].a, w[1].b)),
                "contacts out of slot-major order: {w:?}"
            );
        }
        for c in &contacts {
            assert!(c.slot < 200 && c.b < 10 && c.a < c.b);
        }
    }

    #[test]
    fn slot_stream_matches_bernoulli_rate() {
        // 45 pairs × 2000 slots × p = 0.02 ⇒ 1800 expected contacts.
        let rng = Xoshiro256::seed_from_u64(12);
        let n = SlotContactStream::new(10, 0.02, 2_000, rng).count() as f64;
        assert!(
            (n - 1_800.0).abs() < 5.0 * 1_800.0f64.sqrt(),
            "{n} contacts"
        );
    }

    #[test]
    fn slot_stream_peek_matches_next() {
        let rng = Xoshiro256::seed_from_u64(13);
        let mut stream = SlotContactStream::new(6, 0.05, 500, rng);
        while let Some(slot) = stream.peek_slot() {
            let c = stream.next().unwrap();
            assert_eq!(c.slot, slot);
        }
        assert!(stream.next().is_none());
    }

    #[test]
    #[should_panic(expected = "0 ≤ p < 1")]
    fn slot_stream_rejects_probability_one() {
        let _ = SlotContactStream::new(3, 1.0, 10, Xoshiro256::seed_from_u64(0));
    }
}
