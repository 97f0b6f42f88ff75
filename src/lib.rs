//! # age-of-impatience
//!
//! A faithful, from-scratch Rust reproduction of **"The Age of Impatience:
//! Optimal Replication Schemes for Opportunistic Networks"** (Joshua Reich
//! & Augustin Chaintreau, CoNEXT 2009).
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`core`] (`impatience-core`) — delay-utility functions, social
//!   welfare, and optimal cache-allocation solvers;
//! * [`mobility`] (`impatience-mobility`) — grid-road taxi mobility and
//!   geometric contact detection;
//! * [`traces`] (`impatience-traces`) — contact-trace generation,
//!   statistics, resynthesis, and I/O;
//! * [`sim`] (`impatience-sim`) — the discrete-event simulator with the
//!   QCR replication protocol, mandate routing, and the fixed-allocation
//!   baselines;
//! * [`obs`] (`impatience-obs`) — zero-cost-when-disabled instrumentation:
//!   counters, delay histograms, JSONL event traces, and run manifests;
//! * [`oracle`] (`impatience-oracle`) — the differential verification
//!   oracle: brute-force optima for tiny instances, analytic-vs-Monte-Carlo
//!   cross checks, and the scenario conformance matrix behind
//!   `impatience verify`;
//! * [`json`] (`impatience-json`) — the dependency-free JSON value type
//!   the instrumentation and trace I/O are built on;
//! * [`exp`] (`impatience-exp`) — the declarative experiment pipeline:
//!   TOML scenario specs in `experiments/` compiled into simulation
//!   campaigns, behind `impatience reproduce`.
//!
//! ## Sixty-second tour
//!
//! ```
//! use age_of_impatience::prelude::*;
//!
//! // The paper's §6.2 setting: 50 pure-P2P nodes, 50 items, ρ = 5,
//! // homogeneous contacts at rate μ = 0.05, Pareto(ω = 1) popularity.
//! let system = SystemModel::pure_p2p(50, 5, 0.05);
//! let demand = Popularity::pareto(50, 1.0).demand_rates(1.0);
//! let utility = Step::new(10.0); // users give up after 10 time units
//!
//! // Exact optimal allocation and its social welfare.
//! let opt = greedy_homogeneous(&system, &demand, &utility);
//! let w_opt = social_welfare_homogeneous(&system, &demand, &utility, &opt.as_f64());
//!
//! // A heuristic competitor: square-root allocation.
//! let sqrt = sqrt_proportional(&demand, 50, 5);
//! let w_sqrt = social_welfare_homogeneous(&system, &demand, &utility, &sqrt.as_f64());
//! assert!(w_sqrt <= w_opt + 1e-12);
//! ```
//!
//! See `examples/` for end-to-end scenarios, including the paper's
//! "VideoForU" motivating deployment and trace-driven simulations.

pub use impatience_core as core;
pub use impatience_exp as exp;
pub use impatience_json as json;
pub use impatience_mobility as mobility;
pub use impatience_obs as obs;
pub use impatience_oracle as oracle;
pub use impatience_sim as sim;
pub use impatience_traces as traces;

pub mod prelude {
    //! Everything most programs need, in one import.
    pub use impatience_core::prelude::*;
    pub use impatience_sim::prelude::*;
    pub use impatience_traces::prelude::*;
}
