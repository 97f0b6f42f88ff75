//! Distributed-runtime differential: the message-passing QCR kernel
//! (`impatience-net`) against the in-process engine on paired seeds.
//!
//! Both runtimes seed trial `k` with `base_seed + k` and begin it with
//! the engine's own seeding (`impatience_sim::engine::seed_trial`), so a
//! pair of trials shares its contacts, the faults that drop them, its
//! sticky fill and the time of its first arrival. The rest of the demand
//! stream is not shared: right after drawing that time the kernel forks
//! one RNG stream per node off the trial RNG, and the engine's QCR draws
//! from the RNG its arrivals come from, so items, origins and later
//! arrival times differ. (Sharing them would take another RNG stream and
//! change every recorded digest.) The comparison runs on the *paired
//! differences* of the per-trial welfare rates: the shared contacts make
//! them tighter than two independent CLT widths, and any systematic gap
//! between the runtimes shows up directly in the mean difference.
//!
//! The deterministic [`Comparison::allowance`] covers the two documented
//! biases of the distributed runtime:
//!
//! 1. **Protocol latency.** A fulfillment needs advert → request →
//!    fulfill, so every wait is stretched by ≈ 3 one-way message delays
//!    relative to the engine's instantaneous contact service. The rate
//!    effect is bounded by the utility's worst relative decay over such
//!    a stretch.
//! 2. **Cap-pressure routing.** Under mandate-cap pressure both sides of
//!    a meeting may ship mandates simultaneously where the engine's
//!    sequential router would have clamped one direction; pools stay
//!    within the cap (overflow is discarded on receipt) but the final
//!    resting places can differ, a second-order allocation effect.

use impatience_net::{run_net_trial, NetConfig, NetError};
use impatience_sim::config::{ContactSource, SimConfig};
use impatience_sim::engine::run_trial;
use impatience_sim::policy::PolicyKind;

use crate::differential::{clt_interval, Comparison};

/// Worst relative decay `1 − h(w + lat)/h(w)` of the utility over a
/// latency stretch `lat`, probed at a small set of waits (plus `0⁺` when
/// `h(0)` is finite). For the convex decreasing utilities used here the
/// ratio is maximized at small waits; the probe set brackets that.
fn latency_decay(config: &SimConfig, lat: f64) -> f64 {
    let u = config.utility.as_ref();
    let mut worst: f64 = 0.0;
    let mut probes = vec![0.1, 1.0, 10.0, 100.0];
    if u.h_zero().is_finite() {
        probes.push(0.0);
    }
    for w in probes {
        let base = u.h(w);
        if base.is_finite() && base > 0.0 {
            worst = worst.max(1.0 - u.h(w + lat) / base);
        }
    }
    worst.clamp(0.0, 1.0)
}

/// Run `trials` paired trials through the engine and the distributed
/// kernel and compare their post-warm-up welfare rates.
///
/// `reference` is the engine's mean rate, `estimate` the kernel's, and
/// `half_width` the CLT interval of the *paired* per-seed differences at
/// the chosen `z`. The allowance bounds the kernel's documented
/// deterministic biases (protocol latency, cap-pressure routing); see
/// the module docs.
///
/// Any kernel error (conservation violation, strict-mode timeout,
/// invalid [`NetConfig`]) aborts the comparison.
///
/// # Panics
/// Panics if `trials == 0`.
pub fn net_vs_engine(
    config: &SimConfig,
    source: &ContactSource,
    net: &NetConfig,
    trials: usize,
    base_seed: u64,
    z: f64,
) -> Result<Comparison, NetError> {
    assert!(trials > 0, "need at least one trial");
    net.validate()?;
    let warmup = config.warmup_fraction;
    let policy = PolicyKind::Qcr(net.qcr.clone());
    let mut engine = Vec::with_capacity(trials);
    let mut distributed = Vec::with_capacity(trials);
    for k in 0..trials {
        let seed = base_seed.wrapping_add(k as u64);
        engine.push(
            run_trial(config, source, policy.clone(), seed)
                .metrics
                .average_observed_rate(warmup),
        );
        distributed.push(
            run_net_trial(config, source, net, seed)?
                .outcome
                .metrics
                .average_observed_rate(warmup),
        );
    }
    let mean_e = engine.iter().sum::<f64>() / trials as f64;
    let mean_n = distributed.iter().sum::<f64>() / trials as f64;
    let diffs: Vec<f64> = distributed
        .iter()
        .zip(&engine)
        .map(|(n, e)| n - e)
        .collect();
    let (_, hw) = clt_interval(&diffs, z);

    // Protocol latency: advert + request + fulfill, one hop each.
    let latency = 3.0 * net.msg_delay;
    let latency_bias = mean_e.abs() * latency_decay(config, latency);
    // Cap-pressure routing: allocation drift, second order in the rate.
    let routing_bias = 0.02 * mean_e.abs();
    Ok(Comparison {
        reference: mean_e,
        estimate: mean_n,
        half_width: hw,
        allowance: latency_bias + routing_bias,
        samples: trials,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use impatience_core::demand::Popularity;
    use impatience_core::utility::{Exponential, Step};
    use impatience_sim::faults::MsgFaults;
    use std::sync::Arc;

    fn config(items: usize, rho: usize) -> SimConfig {
        SimConfig::builder(items, rho)
            .demand(Popularity::pareto(items, 1.0).demand_rates(0.5))
            .utility(Arc::new(Step::new(10.0)))
            .bin(100.0)
            .build()
    }

    #[test]
    fn clean_transport_agrees_with_engine() {
        let config = config(10, 2);
        let source = ContactSource::homogeneous(12, 0.1, 1_500.0);
        let cmp = net_vs_engine(&config, &source, &NetConfig::default(), 5, 41, 3.5).unwrap();
        assert!(
            cmp.agrees(),
            "distributed QCR diverged from the engine: {}",
            cmp.describe()
        );
        assert!(cmp.reference > 0.0 && cmp.estimate > 0.0);
    }

    #[test]
    fn agreement_holds_for_exponential_utility() {
        let config = SimConfig::builder(8, 2)
            .demand(Popularity::pareto(8, 1.0).demand_rates(0.5))
            .utility(Arc::new(Exponential::new(0.1)))
            .bin(100.0)
            .build();
        let source = ContactSource::homogeneous(10, 0.1, 1_500.0);
        let cmp = net_vs_engine(&config, &source, &NetConfig::default(), 5, 77, 3.5).unwrap();
        assert!(cmp.agrees(), "{}", cmp.describe());
    }

    #[test]
    fn lossy_transport_is_bounded_below_clean() {
        use impatience_sim::faults::FaultConfig;
        let mut config = config(8, 2);
        let source = ContactSource::homogeneous(10, 0.1, 1_500.0);
        let net = NetConfig::default();
        let clean = net_vs_engine(&config, &source, &net, 4, 91, 3.5).unwrap();
        config.faults = Some(FaultConfig {
            msg: Some(MsgFaults {
                loss_p: 0.10,
                dup_p: 0.0,
                reorder_window: 0,
            }),
            ..FaultConfig::default()
        });
        let lossy = net_vs_engine(&config, &source, &net, 4, 91, 3.5).unwrap();
        // Retries mask most loss inside the contact window: welfare must
        // stay within a bounded factor of the clean run, not collapse.
        assert!(
            lossy.estimate > 0.5 * clean.estimate,
            "10% loss collapsed welfare: clean {} vs lossy {}",
            clean.estimate,
            lossy.estimate
        );
    }
}
