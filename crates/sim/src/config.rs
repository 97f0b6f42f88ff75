//! Simulation configuration.

use std::borrow::Cow;
use std::fmt;
use std::sync::Arc;

use impatience_core::demand::{DemandProfile, DemandRates, Popularity};
use impatience_core::rng::Xoshiro256;
use impatience_core::types::SystemModel;
use impatience_core::utility::{DelayUtility, Step};
use impatience_traces::{ContactStream, ContactTrace};

use crate::faults::FaultConfig;

/// A rejected simulation configuration: what is wrong and with which
/// value, surfaced at construction/validation time instead of a panic
/// mid-campaign. The `Display` strings are stable: the engines that
/// panic on a config they cannot run forward them verbatim.
#[derive(Clone, Debug, PartialEq)]
pub enum ConfigError {
    /// A rates/profile vector disagrees with the catalog size.
    CatalogMismatch {
        /// Which input ("demand", "profile", "shifted demand").
        what: &'static str,
        /// The catalog size |I|.
        expected: usize,
        /// The offending vector's width.
        found: usize,
    },
    /// The catalog is empty.
    ZeroItems,
    /// The per-server cache capacity ρ is zero: no node could hold a
    /// replica, so there is nothing to place.
    ZeroCapacity,
    /// A demand rate is negative or non-finite.
    InvalidDemand {
        /// Item index of the offending rate.
        item: usize,
        /// The offending value.
        rate: f64,
    },
    /// The dedicated-server split does not fit the population.
    InvalidPopulation {
        /// Configured server count.
        servers: usize,
        /// Population size.
        nodes: usize,
    },
    /// The demand profile's node count disagrees with the client count.
    ProfileWidth {
        /// Expected client count.
        expected: usize,
        /// The profile's node count.
        found: usize,
    },
    /// The utility has `h(0⁺) = ∞` but the population is pure P2P.
    RequiresDedicated {
        /// The utility family's name.
        utility: String,
    },
    /// A demand shift is malformed.
    InvalidShift {
        /// What is wrong.
        message: String,
    },
    /// Non-positive metrics bin width.
    InvalidBin {
        /// The offending value.
        bin: f64,
    },
    /// Warm-up fraction outside `[0, 0.9)`.
    InvalidWarmup {
        /// The offending value.
        fraction: f64,
    },
    /// The global cache budget `ρ·|S|` overflows.
    CacheOverflow {
        /// Per-server capacity ρ.
        rho: usize,
        /// Server count |S|.
        servers: usize,
    },
    /// A contact-source parameter (μ, duration, node count) is invalid.
    InvalidRate {
        /// What is wrong.
        message: String,
    },
    /// A fault-model parameter is invalid.
    InvalidFaults {
        /// What is wrong.
        message: String,
    },
    /// The intra-trial sharded engine cannot run this configuration
    /// (see [`crate::sharded`] for the supported subset).
    UnsupportedSharded {
        /// The unsupported feature.
        feature: &'static str,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::CatalogMismatch {
                what,
                expected,
                found,
            } => write!(
                f,
                "{what} catalog size mismatch (catalog {expected}, got {found})"
            ),
            ConfigError::ZeroItems => write!(f, "catalog must contain at least one item"),
            ConfigError::ZeroCapacity => write!(f, "cache capacity ρ must be at least 1"),
            ConfigError::InvalidDemand { item, rate } => write!(
                f,
                "demand rate of item {item} must be finite and ≥ 0 (got {rate})"
            ),
            ConfigError::InvalidPopulation { servers, nodes } => write!(
                f,
                "dedicated population needs 1 ≤ servers < nodes (got {servers} of {nodes})"
            ),
            ConfigError::ProfileWidth { expected, found } => write!(
                f,
                "profile node count must equal the client count ({expected}, got {found})"
            ),
            ConfigError::RequiresDedicated { utility } => write!(
                f,
                "{utility} has h(0+)=∞; use a dedicated population (SimConfig::dedicated_servers)"
            ),
            ConfigError::InvalidShift { message } => write!(f, "{message}"),
            ConfigError::InvalidBin { bin } => {
                write!(f, "bin width must be positive (got {bin})")
            }
            ConfigError::InvalidWarmup { fraction } => {
                write!(f, "warm-up fraction must be in [0, 0.9) (got {fraction})")
            }
            ConfigError::CacheOverflow { rho, servers } => {
                write!(f, "global cache budget ρ·|S| = {rho}·{servers} overflows")
            }
            ConfigError::InvalidRate { message } => write!(f, "{message}"),
            ConfigError::InvalidFaults { message } => write!(f, "fault model: {message}"),
            ConfigError::UnsupportedSharded { feature } => {
                write!(f, "the sharded engine does not support {feature}")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// RNG stream id for forking contact randomness off a trial seed: the
/// contact stream draws from its own generator so lazily interleaving
/// contact sampling with demand sampling cannot perturb the trajectory.
const CONTACT_STREAM_ID: u64 = 0xC0217AC7_57BEA000;

/// Where the contact events of a trial come from.
#[derive(Clone)]
pub enum ContactSource {
    /// Fresh homogeneous Poisson contacts per trial (nodes, rate,
    /// duration) — §6.2.
    Homogeneous {
        /// Number of nodes.
        nodes: usize,
        /// Pairwise meeting rate μ.
        mu: f64,
        /// Trace duration (minutes).
        duration: f64,
    },
    /// A fixed trace replayed in every trial (randomness then comes from
    /// demand arrivals and initial placement) — §6.3.
    Trace(Arc<ContactTrace>),
}

impl ContactSource {
    /// Homogeneous Poisson contacts.
    pub fn homogeneous(nodes: usize, mu: f64, duration: f64) -> Self {
        ContactSource::Homogeneous {
            nodes,
            mu,
            duration,
        }
    }

    /// Replay a fixed trace.
    pub fn trace(trace: ContactTrace) -> Self {
        ContactSource::Trace(Arc::new(trace))
    }

    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        match self {
            ContactSource::Homogeneous { nodes, .. } => *nodes,
            ContactSource::Trace(t) => t.nodes(),
        }
    }

    /// Trial duration.
    pub fn duration(&self) -> f64 {
        match self {
            ContactSource::Homogeneous { duration, .. } => *duration,
            ContactSource::Trace(t) => t.duration(),
        }
    }

    /// Mean pairwise rate (exact for homogeneous; per-pair average for
    /// traces) — the `μ` the homogeneous welfare approximation uses.
    pub fn mean_rate(&self) -> f64 {
        match self {
            ContactSource::Homogeneous { mu, .. } => *mu,
            ContactSource::Trace(t) => {
                let n = t.nodes();
                if n < 2 || t.duration() <= 0.0 {
                    return 0.0;
                }
                let pairs = (n * (n - 1) / 2) as f64;
                t.len() as f64 / (pairs * t.duration())
            }
        }
    }

    /// The lazy contact stream for one trial: on-the-fly Poisson
    /// sampling for [`ContactSource::Homogeneous`] (O(1) memory in the
    /// trace length), a zero-copy cursor for [`ContactSource::Trace`].
    ///
    /// For the homogeneous source the stream runs on its own generator
    /// forked from `rng` ([`Xoshiro256::split`]); the trace source does
    /// not touch `rng` at all. Either way the caller's generator ends in
    /// a state independent of how many contacts are later drawn.
    pub fn stream(&self, rng: &mut Xoshiro256) -> ContactStream {
        match self {
            ContactSource::Homogeneous {
                nodes,
                mu,
                duration,
            } => ContactStream::poisson(*nodes, *mu, *duration, rng.split(CONTACT_STREAM_ID)),
            ContactSource::Trace(t) => ContactStream::cursor(Arc::clone(t)),
        }
    }

    /// Validate the source parameters (node count, rate, duration) as a
    /// typed [`ConfigError`] — the CLI's entry gate for user-supplied μ.
    pub fn try_validate(&self) -> Result<(), ConfigError> {
        let err = |message: String| Err(ConfigError::InvalidRate { message });
        match self {
            ContactSource::Homogeneous {
                nodes,
                mu,
                duration,
            } => {
                if *nodes < 2 {
                    return err(format!("need at least 2 nodes (got {nodes})"));
                }
                if !(mu.is_finite() && *mu >= 0.0) {
                    return err(format!("contact rate μ must be finite and ≥ 0 (got {mu})"));
                }
                if !(duration.is_finite() && *duration > 0.0) {
                    return err(format!(
                        "duration must be positive and finite (got {duration})"
                    ));
                }
            }
            ContactSource::Trace(t) => {
                if t.nodes() < 2 {
                    return err(format!("trace needs at least 2 nodes (got {})", t.nodes()));
                }
            }
        }
        Ok(())
    }
}

/// Full description of a simulated system (population, catalog, demand,
/// impatience, measurement).
///
/// By default the simulator models the paper's pure-P2P population
/// (§6.2: every node is both client and server), which requires
/// `h(0⁺) < ∞`. Setting [`SimConfig::dedicated_servers`] switches to the
/// dedicated-node population (§3.1: throwboxes, kiosks, buses): the first
/// `k` trace nodes act as cache-carrying servers, the rest as cache-less
/// clients — which also legitimizes the `h(0⁺) = ∞` families.
#[derive(Clone)]
pub struct SimConfig {
    /// Catalog size |I|.
    pub items: usize,
    /// Per-server cache capacity ρ.
    pub rho: usize,
    /// Demand rates d_i (requests per minute, system-wide).
    pub demand: DemandRates,
    /// Per-node demand profile π (over *client* nodes).
    pub profile: DemandProfile,
    /// The impatience model governing *true* gains (what the metrics
    /// record and the analytic snapshots use).
    pub utility: Arc<dyn DelayUtility>,
    /// The impatience model the *protocol* believes in (drives QCR's
    /// reaction function ψ). Defaults to [`Self::utility`]; set it to a
    /// fitted estimate to study model-mismatch (§7's estimation problem).
    pub protocol_utility: Option<Arc<dyn DelayUtility>>,
    /// Metrics bin width (minutes).
    pub bin: f64,
    /// Fraction of the trial treated as warm-up and excluded from the
    /// average-utility summary (0.0–0.9).
    pub warmup_fraction: f64,
    /// `Some(k)`: dedicated population — trace nodes `0..k` are servers,
    /// the rest clients. `None` (default): pure P2P.
    pub dedicated_servers: Option<usize>,
    /// Demand shifts: at each `(time, rates)` the system-wide demand
    /// switches to `rates` (same catalog size). Models the "evolving
    /// demands" extension of §7; QCR adapts, pinned allocations cannot.
    pub demand_shifts: Vec<(f64, DemandRates)>,
    /// Cache-eviction rule (the paper's model is random replacement;
    /// alternatives are ablation hooks).
    pub eviction: crate::state::EvictionPolicy,
    /// Fault-injection model (`None` = the clean network).
    pub faults: Option<FaultConfig>,
}

impl SimConfig {
    /// Start building a config for `items` items and cache capacity
    /// `rho`. Defaults: Pareto(ω=1) demand at 1 request/min total,
    /// uniform profile over the node count resolved at run time,
    /// `Step(10)` impatience, 60-minute bins, 20 % warm-up.
    pub fn builder(items: usize, rho: usize) -> SimConfigBuilder {
        SimConfigBuilder {
            items,
            rho,
            demand: None,
            profile: None,
            utility: None,
            bin: 60.0,
            warmup_fraction: 0.2,
            dedicated_servers: None,
            demand_shifts: Vec::new(),
            protocol_utility: None,
            eviction: crate::state::EvictionPolicy::Random,
            faults: None,
        }
    }

    /// The front ends' campaign shape: `items` items under Pareto(`omega`)
    /// demand of one request per minute in all, `utility`, 60-minute bins
    /// and the first quarter of the horizon as warm-up. The CLI's runs,
    /// `netrun --verify`'s panel and the service's jobs all start here.
    pub fn campaign(
        items: usize,
        rho: usize,
        omega: f64,
        utility: Arc<dyn DelayUtility>,
    ) -> SimConfigBuilder {
        SimConfig::builder(items, rho)
            .demand(Popularity::pareto(items, omega).demand_rates(1.0))
            .utility(utility)
            .bin(60.0)
            .warmup_fraction(0.25)
    }

    /// The impatience model the replication protocol believes in: the
    /// protocol utility if one is set, else the true one.
    pub(crate) fn protocol(&self) -> Arc<dyn DelayUtility> {
        self.protocol_utility
            .clone()
            .unwrap_or_else(|| self.utility.clone())
    }

    /// The homogeneous system model of `nodes` nodes meeting at rate `mu`.
    pub(crate) fn system(&self, nodes: usize, mu: f64) -> SystemModel {
        match self.dedicated_servers {
            Some(k) => SystemModel::dedicated(nodes - k, k, self.rho, mu),
            None => SystemModel::pure_p2p(nodes, self.rho, mu),
        }
    }

    /// Number of client nodes for a population of `nodes` trace nodes
    /// (0 when the configured servers do not fit it).
    pub fn clients(&self, nodes: usize) -> usize {
        nodes.saturating_sub(self.dedicated_servers.unwrap_or(0))
    }

    /// The population checks, which need the node count but size
    /// nothing by it: the dedicated-server split must fit the population,
    /// and the global cache budget `ρ·|S|` must not overflow.
    pub(crate) fn check_population(&self, nodes: usize) -> Result<(), ConfigError> {
        let servers = match self.dedicated_servers {
            Some(servers) if !(servers >= 1 && servers < nodes) => {
                return Err(ConfigError::InvalidPopulation { servers, nodes })
            }
            Some(servers) => servers,
            None => nodes,
        };
        if self.rho.checked_mul(servers).is_none() {
            return Err(ConfigError::CacheOverflow {
                rho: self.rho,
                servers,
            });
        }
        Ok(())
    }

    /// This config as a trial on `nodes` nodes runs it: the population
    /// split checked, the demand profile sized to the client count (the
    /// builder defaults it to one node until the population is known —
    /// borrowed when it already fits, the common case, instead of
    /// deep-cloning demand + profile + shifts once per trial), and the
    /// result validated.
    pub fn try_resolved(&self, nodes: usize) -> Result<Cow<'_, SimConfig>, ConfigError> {
        self.check_population(nodes)?;
        let clients = self.clients(nodes);
        let config = if self.profile.nodes() == clients {
            Cow::Borrowed(self)
        } else {
            let mut resized = self.clone();
            resized.profile = DemandProfile::uniform(self.items, clients);
            Cow::Owned(resized)
        };
        config.try_validate(nodes)?;
        Ok(config)
    }

    /// Validate against a node count, returning the first violation as a
    /// typed [`ConfigError`]: the checks that need no node count, the
    /// population checks, and the profile's width.
    pub fn try_validate(&self, nodes: usize) -> Result<(), ConfigError> {
        self.check_setting()?;
        self.check_population(nodes)?;
        if self.profile.nodes() != self.clients(nodes) {
            return Err(ConfigError::ProfileWidth {
                expected: self.clients(nodes),
                found: self.profile.nodes(),
            });
        }
        Ok(())
    }

    /// The checks that need no node count: catalog and cache size, the
    /// demand and its shifts, the utility against the population kind,
    /// metrics binning and the fault model. The sharded engine runs these
    /// without resolving the config, which would size a profile by its
    /// 10⁶ nodes.
    pub(crate) fn check_setting(&self) -> Result<(), ConfigError> {
        if self.items == 0 {
            return Err(ConfigError::ZeroItems);
        }
        if self.rho == 0 {
            return Err(ConfigError::ZeroCapacity);
        }
        if self.demand.items() != self.items {
            return Err(ConfigError::CatalogMismatch {
                what: "demand",
                expected: self.items,
                found: self.demand.items(),
            });
        }
        if let Some((item, &rate)) = self
            .demand
            .rates()
            .iter()
            .enumerate()
            .find(|(_, r)| !(r.is_finite() && **r >= 0.0))
        {
            return Err(ConfigError::InvalidDemand { item, rate });
        }
        if self.profile.items() != self.items {
            return Err(ConfigError::CatalogMismatch {
                what: "profile",
                expected: self.items,
                found: self.profile.items(),
            });
        }
        if self.utility.requires_dedicated() && self.dedicated_servers.is_none() {
            return Err(ConfigError::RequiresDedicated {
                utility: self.utility.kind().to_string(),
            });
        }
        for (t, rates) in &self.demand_shifts {
            if !(t.is_finite() && *t >= 0.0) {
                return Err(ConfigError::InvalidShift {
                    message: format!("shift times must be finite and ≥ 0 (got {t})"),
                });
            }
            if rates.items() != self.items {
                return Err(ConfigError::CatalogMismatch {
                    what: "shifted demand",
                    expected: self.items,
                    found: rates.items(),
                });
            }
        }
        if self.bin <= 0.0 || self.bin.is_nan() {
            return Err(ConfigError::InvalidBin { bin: self.bin });
        }
        if !(0.0..0.9).contains(&self.warmup_fraction) {
            return Err(ConfigError::InvalidWarmup {
                fraction: self.warmup_fraction,
            });
        }
        if let Some(faults) = &self.faults {
            faults.validate()?;
        }
        Ok(())
    }
}

/// Builder for [`SimConfig`].
pub struct SimConfigBuilder {
    items: usize,
    rho: usize,
    demand: Option<DemandRates>,
    profile: Option<DemandProfile>,
    utility: Option<Arc<dyn DelayUtility>>,
    bin: f64,
    warmup_fraction: f64,
    dedicated_servers: Option<usize>,
    demand_shifts: Vec<(f64, DemandRates)>,
    protocol_utility: Option<Arc<dyn DelayUtility>>,
    eviction: crate::state::EvictionPolicy,
    faults: Option<FaultConfig>,
}

impl SimConfigBuilder {
    /// Set the demand rates.
    pub fn demand(mut self, demand: DemandRates) -> Self {
        self.demand = Some(demand);
        self
    }

    /// Set the per-node profile (defaults to uniform at build time).
    pub fn profile(mut self, profile: DemandProfile) -> Self {
        self.profile = Some(profile);
        self
    }

    /// Set the impatience model.
    pub fn utility(mut self, utility: Arc<dyn DelayUtility>) -> Self {
        self.utility = Some(utility);
        self
    }

    /// Set the metrics bin width (minutes).
    pub fn bin(mut self, bin: f64) -> Self {
        self.bin = bin;
        self
    }

    /// Set the warm-up fraction excluded from summary averages.
    pub fn warmup_fraction(mut self, f: f64) -> Self {
        self.warmup_fraction = f;
        self
    }

    /// Use a dedicated population: the first `servers` trace nodes carry
    /// caches, the rest only issue requests (§3.1).
    pub fn dedicated_servers(mut self, servers: usize) -> Self {
        self.dedicated_servers = Some(servers);
        self
    }

    /// Switch the system-wide demand to `rates` at time `t` (may be
    /// called repeatedly; shifts are applied in time order).
    pub fn demand_shift(mut self, t: f64, rates: DemandRates) -> Self {
        self.demand_shifts.push((t, rates));
        self
    }

    /// Set the cache-eviction rule (default: random replacement).
    pub fn eviction(mut self, policy: crate::state::EvictionPolicy) -> Self {
        self.eviction = policy;
        self
    }

    /// Give the protocol a *different* impatience model than the true
    /// one (e.g. a fitted estimate): gains are still recorded under the
    /// truth, but QCR's reaction function uses this model.
    pub fn protocol_utility(mut self, utility: Arc<dyn DelayUtility>) -> Self {
        self.protocol_utility = Some(utility);
        self
    }

    /// Attach a fault-injection model (see [`crate::faults`]).
    pub fn faults(mut self, faults: FaultConfig) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Finish building. A missing profile defaults to uniform over the
    /// node count implied at `run_trial` time ([`SimConfig::try_resolved`]).
    pub fn build(self) -> SimConfig {
        let demand = self
            .demand
            .unwrap_or_else(|| Popularity::pareto(self.items, 1.0).demand_rates(1.0));
        SimConfig {
            items: self.items,
            rho: self.rho,
            demand,
            // Placeholder 1-node profile, resized by `try_resolved`.
            profile: self
                .profile
                .unwrap_or_else(|| DemandProfile::uniform(self.items, 1)),
            utility: self.utility.unwrap_or_else(|| Arc::new(Step::new(10.0))),
            bin: self.bin,
            warmup_fraction: self.warmup_fraction,
            dedicated_servers: self.dedicated_servers,
            protocol_utility: self.protocol_utility,
            eviction: self.eviction,
            faults: self.faults,
            demand_shifts: {
                let mut shifts = self.demand_shifts;
                shifts.sort_by(|a, b| a.0.total_cmp(&b.0));
                shifts
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use impatience_core::utility::Power;
    use impatience_traces::ContactEvent;

    #[test]
    fn builder_defaults() {
        let c = SimConfig::builder(10, 3).build();
        assert_eq!(c.items, 10);
        assert_eq!(c.rho, 3);
        assert_eq!(c.demand.items(), 10);
        assert!((c.demand.total() - 1.0).abs() < 1e-12);
        assert_eq!(c.bin, 60.0);
    }

    #[test]
    fn try_resolved_sizes_the_profile() {
        let c = SimConfig::builder(5, 2).build();
        let resolved = c.try_resolved(8).unwrap();
        assert_eq!(resolved.profile.nodes(), 8);
        assert!(matches!(resolved, Cow::Owned(_)));
        assert!(matches!(resolved.try_resolved(8), Ok(Cow::Borrowed(_))));
    }

    #[test]
    fn try_resolved_rejects_dedicated_only_utility() {
        let c = SimConfig::builder(5, 2)
            .utility(Arc::new(Power::new(1.5)))
            .build();
        let err = c.try_resolved(4).err().expect("refused");
        assert!(matches!(err, ConfigError::RequiresDedicated { .. }));
        assert!(err.to_string().contains("dedicated population"), "{err}");
    }

    #[test]
    fn zero_capacity_is_refused_without_a_node_count() {
        let c = SimConfig::builder(5, 0).build();
        assert_eq!(c.check_setting(), Err(ConfigError::ZeroCapacity));
        assert_eq!(c.try_resolved(8).err(), Some(ConfigError::ZeroCapacity));
        let err = ConfigError::ZeroCapacity.to_string();
        assert_eq!(err, "cache capacity ρ must be at least 1");
    }

    #[test]
    fn try_validate_returns_typed_errors() {
        let c = SimConfig::builder(5, 2)
            .build()
            .try_resolved(8)
            .unwrap()
            .into_owned();
        c.try_validate(8).unwrap();

        let mut bad = c.clone();
        bad.warmup_fraction = 0.95;
        assert!(matches!(
            bad.try_validate(8),
            Err(ConfigError::InvalidWarmup { .. })
        ));

        let mut bad = c.clone();
        bad.bin = 0.0;
        assert!(matches!(
            bad.try_validate(8),
            Err(ConfigError::InvalidBin { .. })
        ));

        let mut bad = c.clone();
        bad.items = 0;
        assert_eq!(bad.try_validate(8), Err(ConfigError::ZeroItems));

        // Negative/non-finite rates cannot be built through DemandRates
        // (its constructor rejects them), so the reachable demand error
        // is a catalog size mismatch.
        let mut bad = c.clone();
        bad.demand = impatience_core::demand::DemandRates::new(vec![1.0; 4]);
        assert!(matches!(
            bad.try_validate(8),
            Err(ConfigError::CatalogMismatch { .. })
        ));

        let mut bad = c.clone();
        bad.rho = usize::MAX;
        assert!(matches!(
            bad.try_validate(8),
            Err(ConfigError::CacheOverflow { .. })
        ));

        let mut bad = c;
        bad.faults = Some(crate::faults::FaultConfig {
            truncate_fraction: Some(0.0),
            ..Default::default()
        });
        assert!(matches!(
            bad.try_validate(8),
            Err(ConfigError::InvalidFaults { .. })
        ));
    }

    #[test]
    fn source_try_validate_rejects_bad_rates() {
        ContactSource::homogeneous(5, 0.1, 100.0)
            .try_validate()
            .unwrap();
        assert!(ContactSource::homogeneous(5, -0.1, 100.0)
            .try_validate()
            .is_err());
        assert!(ContactSource::homogeneous(1, 0.1, 100.0)
            .try_validate()
            .is_err());
        assert!(ContactSource::homogeneous(5, 0.1, f64::INFINITY)
            .try_validate()
            .is_err());
    }

    #[test]
    fn homogeneous_source_streams_fresh_contacts() {
        let src = ContactSource::homogeneous(5, 0.1, 100.0);
        assert_eq!(src.nodes(), 5);
        assert_eq!(src.duration(), 100.0);
        assert_eq!(src.mean_rate(), 0.1);
        let mut r1 = Xoshiro256::seed_from_u64(1);
        let mut r2 = Xoshiro256::seed_from_u64(2);
        let t1 = src.stream(&mut r1).collect_trace();
        let t2 = src.stream(&mut r2).collect_trace();
        assert_ne!(t1.events(), t2.events(), "trials should differ");
    }

    #[test]
    fn trace_source_is_fixed_and_estimates_rate() {
        let trace = ContactTrace::new(
            3,
            100.0,
            vec![
                ContactEvent::new(1.0, 0, 1),
                ContactEvent::new(2.0, 1, 2),
                ContactEvent::new(3.0, 0, 2),
            ],
        );
        let src = ContactSource::trace(trace);
        assert_eq!(src.nodes(), 3);
        // 3 contacts / (3 pairs × 100 min) = 0.01.
        assert!((src.mean_rate() - 0.01).abs() < 1e-12);
        let mut rng = Xoshiro256::seed_from_u64(0);
        let a = src.stream(&mut rng).collect_trace();
        let b = src.stream(&mut rng).collect_trace();
        assert_eq!(a.events(), b.events());
    }
}
