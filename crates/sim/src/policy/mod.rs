//! Replication policies: what happens to the caches when nodes meet.
//!
//! The engine handles request fulfillment and query counting; a policy
//! places the initial caches ([`PolicyKind::place`]) and decides how to
//! *replicate* content. See [`Qcr`] for the paper's distributed scheme
//! and [`PolicyKind::Static`] for the fixed competitors.

mod hill_climb;
pub(crate) mod qcr;

pub use qcr::{next_key, pool_add, share, MandateHost, Pool, Qcr, QcrConfig, QcrRules, Reaction};

use impatience_core::allocation::{AllocationMatrix, ReplicaCounts};
use impatience_core::demand::DemandRates;
use impatience_core::rng::Xoshiro256;
use impatience_core::solver::fixed::{dominant, proportional, sqrt_proportional, uniform};

use crate::config::SimConfig;
use crate::metrics::Metrics;
use crate::state::SimState;

/// One fulfilled request, reported by the engine to the policy.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Fulfillment {
    /// The node whose request was fulfilled.
    pub node: usize,
    /// The item.
    pub item: u32,
    /// Final query-counter value (number of meetings until fulfillment,
    /// inclusive; 0 for immediate self-cache hits).
    pub queries: u64,
    /// Waiting time experienced.
    pub wait: f64,
}

/// A replication policy instance (one per trial; owns its protocol
/// state, e.g. QCR's mandate pools).
pub trait ReplicationPolicy {
    /// Called once per contact `(a, b)` at time `t`, after the engine has
    /// processed fulfillments (both directions). The policy may mutate
    /// caches through `state`.
    #[allow(clippy::too_many_arguments)] // a contact carries exactly this context
    fn after_contact(
        &mut self,
        t: f64,
        a: usize,
        b: usize,
        state: &mut SimState,
        fulfilled: &[Fulfillment],
        metrics: &mut Metrics,
        rng: &mut Xoshiro256,
    );

    /// Whether `node` is idle: a meeting that fulfils nothing, between
    /// two idle nodes, leaves the policy, the caches and the RNG as they
    /// were, so the engine may skip it. The default, `false`, never lets
    /// it.
    fn idle(&self, _node: usize) -> bool {
        false
    }
}

/// Cloneable descriptor of a policy, instantiated per trial.
#[derive(Clone)]
pub enum PolicyKind {
    /// Query Counting Replication (§5) with the given knobs.
    Qcr(QcrConfig),
    /// A fixed allocation: §6.1's competitors "have access to a perfect
    /// control-channel", so caches are pinned to the given replica counts
    /// (a fresh random placement each trial, by [`PolicyKind::place`])
    /// and never change; a meeting only fulfills requests.
    Static {
        /// Human-readable label (e.g. "OPT", "UNI").
        label: &'static str,
        /// The allocation to pin.
        counts: ReplicaCounts,
    },
    /// Passive replication: a constant number of replicas per
    /// fulfillment (mandate machinery shared with QCR). Converges toward
    /// the proportional allocation (§6.2).
    Passive {
        /// Replicas created per fulfillment.
        replicas: f64,
    },
    /// §4.1's hill-climbing baseline: full-knowledge welfare marginals,
    /// but cache changes only through local moves at meetings (one
    /// improving move per node per meeting).
    HillClimb,
}

impl PolicyKind {
    /// QCR with default knobs (mandate routing on, rewriting off).
    pub fn qcr_default() -> Self {
        PolicyKind::Qcr(QcrConfig::default())
    }

    /// The names [`PolicyKind::fixed`] knows, in §6.1's reporting order.
    pub const FIXED: [&'static str; 4] = ["uni", "sqrt", "prop", "dom"];

    /// The rate-blind allocation called `name` (§6.1's UNI, SQRT, PROP,
    /// DOM) pinned over `servers` caches of `rho` slots; `None` for any
    /// other name. Every front end that takes a policy name — the CLI,
    /// the job API, the experiment suites — reads these four from here.
    pub fn fixed(name: &str, demand: &DemandRates, servers: usize, rho: usize) -> Option<Self> {
        let items = demand.items();
        Some(match name {
            "uni" => PolicyKind::Static {
                label: "UNI",
                counts: uniform(items, servers, rho),
            },
            "sqrt" => PolicyKind::Static {
                label: "SQRT",
                counts: sqrt_proportional(demand, servers, rho),
            },
            "prop" => PolicyKind::Static {
                label: "PROP",
                counts: proportional(demand, servers, rho),
            },
            "dom" => PolicyKind::Static {
                label: "DOM",
                counts: dominant(demand, servers, rho),
            },
            _ => return None,
        })
    }

    /// Label for reports.
    pub fn label(&self) -> String {
        match self {
            PolicyKind::Qcr(cfg) => {
                if cfg.mandate_routing {
                    "QCR".into()
                } else {
                    "QCR-no-routing".into()
                }
            }
            PolicyKind::Static { label, .. } => (*label).into(),
            PolicyKind::Passive { replicas } => format!("PASSIVE({replicas})"),
            PolicyKind::HillClimb => "HILL".into(),
        }
    }

    /// The QCR knobs this policy runs the mandate machinery with, if it
    /// does (passive replication is QCR with a constant reaction).
    pub fn qcr_config(&self) -> Option<QcrConfig> {
        match self {
            PolicyKind::Qcr(cfg) => Some(cfg.clone()),
            PolicyKind::Passive { replicas } => Some(QcrConfig {
                reaction: Reaction::Constant(*replicas),
                ..QcrConfig::default()
            }),
            PolicyKind::Static { .. } | PolicyKind::HillClimb => None,
        }
    }

    /// Place the initial caches of a trial on `state` (empty, sized for
    /// it), drawing from `rng`. A pinned allocation is loaded with its
    /// replicas shuffled over the servers, so each trial materializes it
    /// afresh; every other policy starts from §6.1's warm start, one
    /// sticky replica per item and the remaining slots filled at random.
    ///
    /// # Panics
    /// Panics if a pinned allocation is over another catalog or server
    /// population than `state`'s.
    pub fn place(&self, state: &mut SimState, rng: &mut Xoshiro256) {
        let PolicyKind::Static { counts, .. } = self else {
            state.seed_sticky_and_fill(rng);
            return;
        };
        assert_eq!(counts.items(), state.items(), "catalog size mismatch");
        assert_eq!(
            counts.servers(),
            state.servers(),
            "allocation is over a different server population"
        );
        // Node 0 is a server in every population (servers come first).
        let rho = state.caches.capacity_of(0);
        state.load_allocation(&AllocationMatrix::from_counts_shuffled(counts, rho, rng));
    }

    /// Instantiate the policy's contact rules for one trial of `config` on
    /// a population of `nodes` nodes, at reference contact rate `mu_ref`;
    /// `None` for a pinned allocation, whose meetings move nothing.
    pub fn instantiate(
        &self,
        config: &SimConfig,
        nodes: usize,
        mu_ref: f64,
    ) -> Option<Box<dyn ReplicationPolicy>> {
        assert!(
            config.dedicated_servers.unwrap_or(nodes) <= nodes,
            "need servers ≤ nodes"
        );
        if let Some(cfg) = self.qcr_config() {
            let rules = QcrRules::for_trial(cfg, config, nodes, mu_ref);
            return Some(Box::new(Qcr::new(rules, nodes)));
        }
        match self {
            PolicyKind::Qcr(_) | PolicyKind::Passive { .. } => unreachable!("handled above"),
            PolicyKind::Static { .. } => None,
            PolicyKind::HillClimb => {
                let mu = if mu_ref > 0.0 { mu_ref } else { 1.0 };
                Some(Box::new(hill_climb::HillClimb::new(
                    config.system(nodes, mu),
                    config.demand.clone(),
                    config.protocol(),
                )))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels() {
        assert_eq!(PolicyKind::qcr_default().label(), "QCR");
        let no_routing = PolicyKind::Qcr(QcrConfig {
            mandate_routing: false,
            ..QcrConfig::default()
        });
        assert_eq!(no_routing.label(), "QCR-no-routing");
        let s = PolicyKind::Static {
            label: "UNI",
            counts: ReplicaCounts::zero(3, 2),
        };
        assert_eq!(s.label(), "UNI");
        assert_eq!(PolicyKind::Passive { replicas: 1.0 }.label(), "PASSIVE(1)");
    }

    #[test]
    fn fixed_names_pin_the_whole_budget() {
        let demand = impatience_core::demand::Popularity::pareto(6, 1.0).demand_rates(1.0);
        let labels: Vec<String> = PolicyKind::FIXED
            .iter()
            .map(|name| {
                let policy = PolicyKind::fixed(name, &demand, 10, 2).expect(name);
                let PolicyKind::Static { counts, .. } = &policy else {
                    panic!("{name} is not a static allocation");
                };
                assert_eq!(counts.total(), 20, "{name}");
                policy.label()
            })
            .collect();
        assert_eq!(labels, ["UNI", "SQRT", "PROP", "DOM"]);
        assert!(PolicyKind::fixed("opt", &demand, 10, 2).is_none());
    }

    fn pinned(counts: ReplicaCounts) -> PolicyKind {
        PolicyKind::Static {
            label: "PINNED",
            counts,
        }
    }

    #[test]
    fn place_pins_exact_counts() {
        let mut rng = Xoshiro256::seed_from_u64(1);
        let counts = ReplicaCounts::new(vec![3, 2, 0, 1], 4);
        let mut state = SimState::new(4, 4, 2);
        pinned(counts).place(&mut state, &mut rng);
        assert_eq!(state.replicas, vec![3, 2, 0, 1]);
    }

    #[test]
    fn only_a_pinned_allocation_has_no_contact_rules() {
        let config = SimConfig::builder(2, 1).build();
        let rules = |policy: PolicyKind| policy.instantiate(&config, 4, 1.0).is_some();
        assert!(!rules(pinned(ReplicaCounts::new(vec![2, 2], 4))));
        assert!(rules(PolicyKind::qcr_default()));
        assert!(rules(PolicyKind::Passive { replicas: 1.0 }));
        assert!(rules(PolicyKind::HillClimb));
    }

    #[test]
    fn trials_differ_in_placement_but_not_counts() {
        let counts = ReplicaCounts::new(vec![2, 1, 1], 4);
        let run = |seed| {
            let mut rng = Xoshiro256::seed_from_u64(seed);
            let mut state = SimState::new(4, 3, 1);
            pinned(counts.clone()).place(&mut state, &mut rng);
            let holders: Vec<Vec<u32>> = state.caches.iter().map(|c| c.items().to_vec()).collect();
            (state.replicas.clone(), holders)
        };
        let (c1, h1) = run(1);
        let (c2, h2) = run(99);
        assert_eq!(c1, c2);
        assert_ne!(h1, h2, "placements should be shuffled per trial");
    }
}
