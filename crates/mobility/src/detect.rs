//! Geometric contact detection: turn trajectories into meeting events.
//!
//! The Cabspotting dataset used by the paper records a *contact* whenever
//! two cabs come within 200 m of each other. We reproduce that with a
//! radius threshold plus hysteresis: a sighting fires when a pair first
//! enters the contact radius, and the pair must separate beyond
//! `radius × HYSTERESIS` before a new sighting can fire. Hysteresis
//! prevents boundary jitter from registering as a burst of meetings.

use std::collections::HashSet;

use crate::{Mobility, SpatialGrid};
use impatience_core::rng::Xoshiro256;

/// Separation factor a pair must exceed (relative to the contact radius)
/// before it is considered disconnected again.
const HYSTERESIS: f64 = 1.1;

/// A pairwise meeting event: nodes `a < b` came within radius at `time`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Sighting {
    /// Event time.
    pub time: f64,
    /// Lower node index.
    pub a: usize,
    /// Higher node index.
    pub b: usize,
}

/// Run a mobility model for `duration` time units sampled every `dt`, and
/// return all sightings within `radius`, in time order.
///
/// Detection uses a uniform spatial hash ([`SpatialGrid`]) sized to the
/// release radius, so each step costs O(n + nearby pairs) instead of
/// O(n²) — the paper-scale populations (tens of nodes) never notice, but
/// thousand-node fields stay tractable.
///
/// # Panics
/// Panics unless `dt`, `duration` and `radius` are positive.
pub fn detect_contacts<M: Mobility>(
    model: &mut M,
    duration: f64,
    dt: f64,
    radius: f64,
    rng: &mut Xoshiro256,
) -> Vec<Sighting> {
    assert!(dt > 0.0 && duration > 0.0 && radius > 0.0);
    let radius_sq = radius * radius;
    let release = radius * HYSTERESIS;
    let mut linked: HashSet<(usize, usize)> = HashSet::new();
    let mut sightings = Vec::new();

    // Pairs already inside the radius at t = 0 count as meetings at 0.
    let scan =
        |time: f64, model: &M, linked: &mut HashSet<(usize, usize)>, out: &mut Vec<Sighting>| {
            let pos = model.positions();
            let grid = SpatialGrid::build(pos, release);
            let near = grid.pairs_within(pos, release);
            // Linked pairs that separated past the release radius unlink;
            // `near` is sorted, so membership is a binary search.
            linked.retain(|pair| near.binary_search(pair).is_ok());
            for (a, b) in near {
                if pos[a].distance_sq(pos[b]) <= radius_sq && !linked.contains(&(a, b)) {
                    linked.insert((a, b));
                    out.push(Sighting { time, a, b });
                }
            }
        };

    scan(0.0, model, &mut linked, &mut sightings);
    let steps = (duration / dt).ceil() as u64;
    for step in 1..=steps {
        model.advance(dt, rng);
        let t = (step as f64 * dt).min(duration);
        scan(t, model, &mut linked, &mut sightings);
    }
    sightings
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Field, GridTaxi, Vec2};

    /// Two nodes oscillating toward and away from each other.
    struct PingPong {
        positions: Vec<Vec2>,
        t: f64,
    }

    impl Mobility for PingPong {
        fn nodes(&self) -> usize {
            2
        }
        fn positions(&self) -> &[Vec2] {
            &self.positions
        }
        fn advance(&mut self, dt: f64, _rng: &mut Xoshiro256) {
            self.t += dt;
            // Node 1 sweeps x = 10 + 8·sin(t); node 0 fixed at origin.
            self.positions[1] = Vec2::new(10.0 + 8.0 * self.t.sin(), 0.0);
        }
    }

    #[test]
    fn oscillating_pair_meets_once_per_cycle() {
        let mut rng = Xoshiro256::seed_from_u64(0);
        let mut m = PingPong {
            positions: vec![Vec2::ZERO, Vec2::new(18.0, 0.0)],
            t: 0.0,
        };
        // Radius 5: contact when x < 5, i.e. sin(t) < −0.625 — once per 2π.
        let sightings = detect_contacts(&mut m, 6.3 * 4.0, 0.01, 5.0, &mut rng);
        assert_eq!(sightings.len(), 4, "{sightings:?}");
        for w in sightings.windows(2) {
            assert!(w[1].time - w[0].time > 5.0, "re-trigger too fast: {w:?}");
        }
    }

    #[test]
    fn initial_overlap_counts_at_time_zero() {
        let mut rng = Xoshiro256::seed_from_u64(0);
        let mut m = PingPong {
            positions: vec![Vec2::ZERO, Vec2::new(1.0, 0.0)],
            t: 0.0,
        };
        let sightings = detect_contacts(&mut m, 1.0, 0.1, 5.0, &mut rng);
        assert_eq!(sightings[0].time, 0.0);
    }

    #[test]
    fn hysteresis_suppresses_jitter() {
        // A pair hovering exactly at the radius boundary must not fire
        // repeatedly.
        struct Jitter {
            positions: Vec<Vec2>,
            step: u64,
        }
        impl Mobility for Jitter {
            fn nodes(&self) -> usize {
                2
            }
            fn positions(&self) -> &[Vec2] {
                &self.positions
            }
            fn advance(&mut self, _dt: f64, _rng: &mut Xoshiro256) {
                self.step += 1;
                // Oscillate between r−ε and r+ε (inside the hysteresis band).
                let x = if self.step.is_multiple_of(2) {
                    4.99
                } else {
                    5.01
                };
                self.positions[1] = Vec2::new(x, 0.0);
            }
        }
        let mut rng = Xoshiro256::seed_from_u64(0);
        let mut m = Jitter {
            positions: vec![Vec2::ZERO, Vec2::new(5.01, 0.0)],
            step: 0,
        };
        let sightings = detect_contacts(&mut m, 100.0, 1.0, 5.0, &mut rng);
        assert_eq!(sightings.len(), 1, "jitter produced {sightings:?}");
    }

    #[test]
    fn ordering_and_pair_normalization() {
        let mut rng = Xoshiro256::seed_from_u64(21);
        let field = Field::new(200.0, 200.0);
        let mut m = GridTaxi::new(10, field, 50.0, 5.0..10.0, 0.0..1.0, &mut rng);
        let sightings = detect_contacts(&mut m, 500.0, 0.5, 20.0, &mut rng);
        assert!(!sightings.is_empty(), "10 taxis on a small grid must meet");
        for w in sightings.windows(2) {
            assert!(w[0].time <= w[1].time);
        }
        for s in &sightings {
            assert!(s.a < s.b);
        }
    }

    #[test]
    fn denser_population_meets_more() {
        let run = |n: usize| {
            let mut rng = Xoshiro256::seed_from_u64(33);
            let field = Field::new(300.0, 300.0);
            let mut m = GridTaxi::new(n, field, 50.0, 5.0..10.0, 0.0..1.0, &mut rng);
            detect_contacts(&mut m, 300.0, 0.5, 15.0, &mut rng).len()
        };
        assert!(run(20) > run(5));
    }

    #[test]
    #[should_panic]
    fn rejects_nonpositive_radius() {
        let mut rng = Xoshiro256::seed_from_u64(0);
        let field = Field::new(10.0, 10.0);
        let mut m = GridTaxi::new(2, field, 5.0, 1.0..2.0, 0.0..1.0, &mut rng);
        let _ = detect_contacts(&mut m, 1.0, 0.1, 0.0, &mut rng);
    }
}
