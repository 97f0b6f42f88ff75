//! Fault-tolerant distributed QCR runtime.
//!
//! The in-process engine (`impatience-sim`) fulfills requests and routes
//! mandates by mutating shared state at each contact — a useful fiction.
//! This crate removes it: every node is an independent task that knows
//! only what the *typed message protocol* told it, links exist only
//! while the [`ContactSource`](impatience_sim::config::ContactSource)
//! says two nodes are in range, and the transport loses, duplicates,
//! reorders, and delays frames under an injected fault family seeded
//! with the `sim::faults` discipline. Nodes crash and restart under the
//! same churn schedule the engine uses to suppress contacts, recovering
//! durable mandate ledgers plus a periodic checkpoint of volatile state.
//!
//! The protocol (five frames: `CacheAdvert`, `Request`, `Fulfill`,
//! `MandateHandoff`, `MandateAck`) implements QCR (paper §5) end to end:
//! query counting per advert, ψ-scaled minting at the requester, and
//! §5.3 mandate routing — with every mandate movement a *two-phase
//! acked transfer* (escrow at the sender, idempotent dedup at the
//! receiver), so the quiesce-time conservation audit
//! ([`Conservation`]) holds exactly under any combination of message
//! loss and mid-handoff crashes. A heartbeat supervisor condemns wedged
//! nodes and degrades the run instead of hanging it.
//!
//! Everything is deterministic by `(config, source, net, seed)` and
//! independent of worker count; `impatience verify` runs the same seeds
//! through this runtime and the engine and asserts welfare agreement
//! within the differential oracle's CLT budget.

#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

pub mod config;
pub mod error;
pub mod kernel;
mod node;
pub mod runner;
pub mod wire;

pub use config::{ChaosEvent, ChaosKind, NetConfig};
pub use error::NetError;
pub use kernel::{run_net_trial, Conservation, NetStats, NetTrialOutcome};
pub use runner::{run_net_trials_observed, NetAggregate};
pub use wire::{Msg, WireError};
