//! Shared experiment plumbing: competitor construction, the paper's
//! canonical settings, and normalized losses.
//!
//! These helpers began as the library routines of the per-figure
//! binaries the specs replaced, and are kept bit-for-bit compatible so
//! the declarative pipeline regenerates the same CSVs.

use std::sync::Arc;

use impatience_core::allocation::ReplicaCounts;
use impatience_core::demand::{DemandProfile, DemandRates, Popularity};
use impatience_core::solver::greedy::greedy_homogeneous;
use impatience_core::solver::het_greedy::greedy_heterogeneous;
use impatience_core::types::SystemModel;
use impatience_core::utility::DelayUtility;
use impatience_core::welfare::HeterogeneousSystem;
use impatience_sim::config::{ContactSource, SimConfig};
use impatience_sim::policy::PolicyKind;
use impatience_sim::runner::TrialAggregate;
use impatience_traces::TraceStats;

use crate::error::ExpError;

/// The paper's Pareto(ω = 1) demand at 1 request/min system-wide — the
/// popularity model of every simulated evaluation section.
pub fn pareto_demand(items: usize) -> DemandRates {
    Popularity::pareto(items, 1.0).demand_rates(1.0)
}

/// The §6.1 competitor suite for a *homogeneous* setting: OPT (exact
/// greedy of Theorem 2), UNI, SQRT, PROP, DOM.
pub fn homogeneous_competitors(
    system: &SystemModel,
    demand: &DemandRates,
    utility: &dyn DelayUtility,
) -> Vec<PolicyKind> {
    let servers = system.servers();
    let rho = system.cache_capacity;
    let opt = PolicyKind::Static {
        label: "OPT",
        counts: greedy_homogeneous(system, demand, utility),
    };
    with_rate_blind(opt, demand, servers, rho)
}

/// `opt` followed by the four rate-blind allocations of §6.1.
fn with_rate_blind(
    opt: PolicyKind,
    demand: &DemandRates,
    servers: usize,
    rho: usize,
) -> Vec<PolicyKind> {
    let fixed = PolicyKind::FIXED
        .iter()
        .filter_map(|name| PolicyKind::fixed(name, demand, servers, rho));
    std::iter::once(opt).chain(fixed).collect()
}

/// The competitor suite for a *trace* setting: [`trace_opt`], then the
/// rate-blind allocations.
pub fn trace_competitors(
    trace_stats: &TraceStats,
    rho: usize,
    demand: &DemandRates,
    profile: &DemandProfile,
    utility: &dyn DelayUtility,
) -> Vec<PolicyKind> {
    let opt = PolicyKind::Static {
        label: "OPT",
        counts: trace_opt(trace_stats, rho, demand, profile, utility),
    };
    with_rate_blind(opt, demand, trace_stats.nodes(), rho)
}

/// OPT on a trace: the submodular greedy of Theorem 1 on pair rates
/// estimated from the trace (the paper's memoryless approximation, §6.3).
pub fn trace_opt(
    trace_stats: &TraceStats,
    rho: usize,
    demand: &DemandRates,
    profile: &DemandProfile,
    utility: &dyn DelayUtility,
) -> ReplicaCounts {
    let nodes = trace_stats.nodes();
    let mut rates = trace_stats.rates().clone();
    if utility.h_infinity() == f64::NEG_INFINITY {
        // Unbounded waiting costs make the memoryless welfare −∞ whenever
        // some client cannot reach any holder, which degenerates the
        // greedy (every placement looks equally worthless and OPT
        // collapses to DOM). Never-observed pairs are a finite-observation
        // artifact, so smooth them with a small ambient rate (2 % of the
        // trace mean) before estimating OPT.
        let floor = (rates.mean_rate() * 0.02).max(1e-12);
        for a in 0..nodes {
            for b in (a + 1)..nodes {
                if rates.rate(a, b) == 0.0 {
                    rates.set_rate(a, b, floor);
                }
            }
        }
    }
    let hsys = HeterogeneousSystem::pure_p2p(rates, rho);
    greedy_heterogeneous(&hsys, demand, profile, utility).to_counts()
}

/// Extract `(U − U_OPT)/|U_OPT|` in percent for every non-OPT policy,
/// using the *simulated* OPT utility as the reference (as the paper's
/// Fig. 4–6 do); a suite of `spec` without an `OPT` entry is an error.
pub fn normalized_losses(
    spec: &str,
    suite: &[(String, TrialAggregate)],
) -> Result<Vec<(String, f64)>, ExpError> {
    let (_, opt) = suite
        .iter()
        .find(|(l, _)| l == "OPT")
        .ok_or_else(|| ExpError::spec(spec, "a loss cell runs no OPT"))?;
    let losses = suite
        .iter()
        .filter(|(l, _)| l != "OPT")
        .map(|(l, a)| {
            (
                l.clone(),
                impatience_sim::metrics::normalized_loss_percent(a.mean_rate, opt.mean_rate),
            )
        })
        .collect();
    Ok(losses)
}

/// Convenience: the paper's §6.2 homogeneous setting (50 pure-P2P nodes,
/// 50 items, ρ = 5, μ = 0.05, Pareto(ω = 1) demand).
pub fn paper_homogeneous_setting(
    utility: Arc<dyn DelayUtility>,
    duration: f64,
) -> (SimConfig, ContactSource, SystemModel) {
    let system = SystemModel::pure_p2p(50, 5, 0.05);
    let demand = pareto_demand(50);
    let config = SimConfig::builder(50, 5)
        .demand(demand)
        .utility(utility)
        .bin(60.0)
        .warmup_fraction(0.3)
        .build();
    let source = ContactSource::homogeneous(50, 0.05, duration);
    (config, source, system)
}

#[cfg(test)]
mod tests {
    use super::*;
    use impatience_core::utility::Step;

    #[test]
    fn competitor_suite_has_expected_labels() {
        let system = SystemModel::pure_p2p(10, 2, 0.05);
        let demand = pareto_demand(10);
        let comp = homogeneous_competitors(&system, &demand, &Step::new(1.0));
        let labels: Vec<String> = comp.iter().map(|p| p.label()).collect();
        assert_eq!(labels, vec!["OPT", "UNI", "SQRT", "PROP", "DOM"]);
        for p in &comp {
            if let PolicyKind::Static { counts, .. } = p {
                assert_eq!(counts.total(), 20);
            }
        }
    }
}
