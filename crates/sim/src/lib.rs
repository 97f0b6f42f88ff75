//! # impatience-sim
//!
//! Discrete-event simulator for P2P content dissemination over
//! opportunistic contacts — the validation apparatus of the paper's §6.
//!
//! The simulator replays a contact trace (synthetic or measured) over a
//! population of nodes that each dedicate a `ρ`-slot cache to the system.
//! Requests arrive as a Poisson process shaped by content popularity;
//! each contact lets the two nodes fulfill one another's outstanding
//! requests and lets the active *replication policy* reshape the caches:
//!
//! * [`policy::Qcr`] — Query Counting Replication (§5): per-request query
//!   counters, the reaction function ψ, replication *mandates*, and
//!   mandate routing (§5.3) with sticky-seed preference — the protocol
//!   itself being [`policy::QcrRules`], which the sharded engine and the
//!   message-passing runtime run too;
//! * [`policy::PolicyKind::Static`] — the perfect-control-channel
//!   competitors (OPT/UNI/SQRT/PROP/DOM): caches pinned to a precomputed
//!   allocation, fulfillment only;
//! * `PolicyKind::Passive` — fixed replicas-per-fulfillment
//!   (the "passive replication … ends in proportional allocation"
//!   baseline of §6.2/§7).
//!
//! [`runner`] runs many independent trials in parallel and aggregates
//! observed utility with the paper's 5 %/95 % percentile bands.
//!
//! ```
//! use impatience_sim::prelude::*;
//! use impatience_core::prelude::*;
//! use std::sync::Arc;
//!
//! // A small homogeneous QCR run.
//! let utility: Arc<dyn DelayUtility> = Arc::new(Step::new(10.0));
//! let config = SimConfig::builder(20, 3)
//!     .demand(Popularity::pareto(20, 1.0).demand_rates(0.5))
//!     .utility(utility)
//!     .build();
//! let source = ContactSource::homogeneous(20, 0.05, 2_000.0);
//! let outcome = run_trial(&config, &source, PolicyKind::qcr_default(), 42);
//! assert!(outcome.metrics.fulfillments() > 0);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![deny(unsafe_code)]

pub mod checkpoint;
pub mod config;
pub mod engine;
pub mod engine_discrete;
pub mod faults;
pub mod metrics;
pub mod policy;
pub mod runner;
pub mod sharded;
pub mod state;
pub mod streams;

pub use checkpoint::{CampaignCheckpoint, CheckpointError};
pub use config::{ConfigError, ContactSource, SimConfig, SimConfigBuilder};
pub use engine::{run_trial, BatchedContacts, TrialOutcome};
pub use engine_discrete::{run_trial_discrete, DiscreteSource};
pub use faults::{CacheFaults, Churn, ContactDrop, FaultConfig, MsgFaults};
pub use metrics::Metrics;
pub use policy::PolicyKind;
pub use runner::{
    run_campaign, run_campaigns, run_trials, run_trials_sharded, CampaignError, CampaignOptions,
    ShardedAggregate, TrialAggregate,
};
pub use sharded::{
    run_trial_sharded, validate_sharded, FaultRecord, ShardedOutcome, LOGICAL_SHARDS,
};
pub use state::EvictionPolicy;

pub mod prelude {
    //! Convenience re-exports.
    pub use crate::checkpoint::{CampaignCheckpoint, CheckpointError};
    pub use crate::config::{ConfigError, ContactSource, SimConfig};
    pub use crate::engine::{run_trial, run_trial_observed};
    pub use crate::faults::FaultConfig;
    pub use crate::policy::{PolicyKind, QcrConfig};
    pub use crate::runner::{
        run_campaign, run_campaigns, run_trials, CampaignError, CampaignOptions, TrialAggregate,
    };
    pub use crate::sharded::{run_trial_sharded, validate_sharded, ShardedOutcome};
}
