//! # impatience-mobility
//!
//! A 2-D mobility model and geometric contact detection for opportunistic-
//! network simulation.
//!
//! The paper evaluates its replication schemes on two real traces —
//! Bluetooth sightings at Infocom'06 and GPS contacts between Cabspotting
//! taxis. Neither dataset ships with this repository, so this crate
//! provides the *mobility substrate* from which equivalent synthetic
//! traces are generated (see `impatience-traces::gen::vehicular`):
//!
//! * [`GridTaxi`] — vehicles driving L-shaped routes on a Manhattan road
//!   grid (a Cabspotting stand-in: strongly heterogeneous meeting rates
//!   driven by geography, corridor re-meeting bursts, long disconnections);
//! * [`detect_contacts`] — radius-threshold contact detection with
//!   hysteresis over any [`Mobility`] implementation.
//!
//! ```
//! use impatience_core::rng::Xoshiro256;
//! use impatience_mobility::{detect_contacts, Field, GridTaxi};
//!
//! let mut rng = Xoshiro256::seed_from_u64(7);
//! let field = Field::new(5_000.0, 5_000.0);
//! let mut taxis = GridTaxi::new(10, field, 500.0, 8.0..14.0, 0.0..60.0, &mut rng);
//! let sightings = detect_contacts(&mut taxis, 3_600.0, 1.0, 200.0, &mut rng);
//! // Taxis on a shared 5 km grid meet occasionally within 200 m.
//! for s in &sightings {
//!     assert!(s.a != s.b && s.time <= 3_600.0);
//! }
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![deny(unsafe_code)]

mod detect;
mod field;
mod grid;
mod grid_index;
mod vec2;

pub use detect::{detect_contacts, Sighting};
pub use field::Field;
pub use grid::GridTaxi;
pub use grid_index::SpatialGrid;
pub use vec2::Vec2;

use impatience_core::rng::Xoshiro256;

/// A population of moving nodes whose positions evolve in continuous time.
///
/// Implementations advance all nodes synchronously; contact detection
/// samples positions between steps.
pub trait Mobility {
    /// Number of nodes.
    fn nodes(&self) -> usize;

    /// Current position of every node.
    fn positions(&self) -> &[Vec2];

    /// Advance the model by `dt` time units.
    fn advance(&mut self, dt: f64, rng: &mut Xoshiro256);
}
