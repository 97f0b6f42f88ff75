//! # impatience-traces
//!
//! Contact-trace infrastructure for the *Age of Impatience* reproduction:
//! containers, synthetic generators, statistics, memoryless resynthesis,
//! and on-disk formats.
//!
//! The paper's §6 evaluates QCR on three contact regimes:
//!
//! 1. **homogeneous** memoryless contacts ([`gen::poisson_homogeneous`]);
//! 2. a **conference** trace (Infocom'06 Bluetooth sightings) — substituted
//!    here by [`gen::ConferenceConfig`]: community-structured rates,
//!    diurnal day/night activity, and heavy-tailed (bursty) inter-contact
//!    gaps;
//! 3. a **vehicular** trace (Cabspotting taxis, 200 m radius) — substituted
//!    by [`gen::VehicularConfig`], which drives `impatience-mobility`'s
//!    grid taxis through geometric contact detection.
//!
//! For Fig. 5(c)-style comparisons, [`synth::resynthesize_memoryless`]
//! keeps a trace's pairwise mean rates but replaces its time statistics
//! with independent Poisson processes — isolating the effect of rate
//! heterogeneity from burstiness, exactly as the paper does.
//!
//! Times are unitless but every built-in generator and experiment in this
//! workspace treats one time unit as **one minute**.
//!
//! ```
//! use impatience_core::rng::Xoshiro256;
//! use impatience_traces::prelude::*;
//!
//! let mut rng = Xoshiro256::seed_from_u64(1);
//! let trace = poisson_homogeneous(10, 0.05, 1_000.0, &mut rng);
//! let stats = TraceStats::from_trace(&trace);
//! // Estimated mean pairwise rate ≈ 0.05.
//! assert!((stats.rates().mean_rate() - 0.05).abs() < 0.01);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![deny(unsafe_code)]
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

mod event;
pub mod gen;
mod import;
mod io;
mod stats;
mod stream;
mod synth;
mod trace;

pub use event::ContactEvent;
pub use import::{read_interval_trace, read_interval_trace_file, ImportOptions, IntervalColumns};
pub use io::{
    read_trace, read_trace_file, read_trace_json, write_trace, write_trace_json, TraceError,
};
pub use stats::TraceStats;
pub use stream::{
    pair_from_index, ContactStream, PoissonContactStream, SlotContact, SlotContactStream,
};
pub use synth::resynthesize_memoryless;
pub use trace::ContactTrace;

pub mod prelude {
    //! Convenience re-exports.
    pub use crate::gen::{
        poisson_from_rates, poisson_homogeneous, ConferenceConfig, VehicularConfig,
    };
    pub use crate::{
        read_trace, resynthesize_memoryless, write_trace, ContactEvent, ContactStream,
        ContactTrace, TraceStats,
    };
}
