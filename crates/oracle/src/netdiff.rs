//! Distributed-runtime differential: the message-passing QCR kernel
//! (`impatience-net`) against the in-process engine on paired seeds.
//!
//! Both runtimes seed trial `k` with `base_seed + k` and draw from the
//! streams of `impatience_sim::streams` in its order, so a pair of trials
//! shares its contacts, the faults that drop them, its sticky fill and
//! the time of its first arrival, and nothing after it: the kernel's
//! per-node streams fork there, so items, origins and later arrival times
//! differ. The comparison runs on the *paired differences* of the
//! per-trial welfare rates: the shared contacts make them tighter than
//! two independent CLT widths, and any systematic gap between the
//! runtimes shows up directly in the mean difference.
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
//!
//! [`net_panel`] is the seeded panel `impatience verify` runs: ten
//! clean-transport cells through [`net_vs_engine`], then a lossy sweep
//! that must terminate with every conservation audit intact.

use impatience_core::utility::parse_utility;
use impatience_net::config::MSG_DELAY;
use impatience_net::{run_net_trial, run_net_trials_observed, NetAggregate, NetConfig, NetError};
use impatience_obs::Recorder;
use impatience_sim::config::{ContactSource, SimConfig};
use impatience_sim::engine::run_trial;
use impatience_sim::faults::{FaultConfig, MsgFaults};
use impatience_sim::policy::PolicyKind;

use crate::differential::{clt_interval, Comparison};

/// The CLT gate of every clean comparison: the paired differences'
/// half-width is `Z` standard errors.
const Z: f64 = 3.5;

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
/// kernel (default [`NetConfig`]) and compare their post-warm-up welfare
/// rates.
///
/// `reference` is the engine's mean rate, `estimate` the kernel's, and
/// `half_width` the CLT interval of the *paired* per-seed differences at
/// z = 3.5. The allowance bounds the kernel's documented
/// deterministic biases (protocol latency, cap-pressure routing); see
/// the module docs.
///
/// Any kernel error (a conservation violation, a config the kernel
/// cannot run) aborts the comparison.
///
/// # Panics
/// Panics if `trials == 0`.
pub fn net_vs_engine(
    config: &SimConfig,
    source: &ContactSource,
    trials: usize,
    base_seed: u64,
) -> Result<Comparison, NetError> {
    assert!(trials > 0, "need at least one trial");
    let net = NetConfig::default();
    let warmup = config.warmup_fraction;
    let policy = PolicyKind::qcr_default();
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
            run_net_trial(config, source, &net, seed)?
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
    let (_, hw) = clt_interval(&diffs, Z);

    // Protocol latency: advert + request + fulfill, one hop each.
    let latency = 3.0 * MSG_DELAY;
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

/// One cell of the [`net_panel`]: a homogeneous Poisson source and a
/// campaign config ([`SimConfig::campaign`]).
struct NetScenario {
    name: &'static str,
    utility: &'static str,
    nodes: usize,
    mu: f64,
    items: usize,
    rho: usize,
    omega: f64,
    dedicated: Option<usize>,
}

impl NetScenario {
    fn build(&self, duration: f64) -> (SimConfig, ContactSource) {
        let utility = parse_utility(self.utility).expect("the panel's utility specs parse");
        let mut builder = SimConfig::campaign(self.items, self.rho, self.omega, utility);
        if let Some(servers) = self.dedicated {
            builder = builder.dedicated_servers(servers);
        }
        let source = ContactSource::homogeneous(self.nodes, self.mu, duration);
        (builder.build(), source)
    }
}

/// The clean-transport panel: utility families × populations × contact
/// regimes, every cell run through both runtimes on paired seeds.
#[rustfmt::skip]
const NET_SCENARIOS: [NetScenario; 10] = [
    NetScenario { name: "step10-small",  utility: "step:10", nodes: 10, mu: 0.10, items: 10, rho: 2, omega: 1.0, dedicated: None },
    NetScenario { name: "step25-mid",    utility: "step:25", nodes: 16, mu: 0.05, items: 12, rho: 3, omega: 1.0, dedicated: None },
    NetScenario { name: "exp-fast",      utility: "exp:0.1", nodes: 12, mu: 0.10, items: 10, rho: 2, omega: 1.0, dedicated: None },
    NetScenario { name: "exp-slow",      utility: "exp:0.02", nodes: 20, mu: 0.04, items: 16, rho: 4, omega: 1.0, dedicated: None },
    NetScenario { name: "power-0.5",     utility: "power:0.5", nodes: 12, mu: 0.08, items: 10, rho: 2, omega: 1.0, dedicated: None },
    NetScenario { name: "neglog-ded",    utility: "neglog", nodes: 12, mu: 0.08, items: 10, rho: 2, omega: 1.0, dedicated: Some(4) },
    NetScenario { name: "flat-demand",   utility: "step:10", nodes: 14, mu: 0.06, items: 12, rho: 3, omega: 0.5, dedicated: None },
    NetScenario { name: "skewed-demand", utility: "step:10", nodes: 14, mu: 0.06, items: 12, rho: 3, omega: 2.0, dedicated: None },
    NetScenario { name: "dedicated",     utility: "step:10", nodes: 16, mu: 0.08, items: 10, rho: 3, omega: 1.0, dedicated: Some(4) },
    NetScenario { name: "dense",         utility: "step:10", nodes: 24, mu: 0.12, items: 8, rho: 2, omega: 1.0, dedicated: None },
];

/// The message-loss rates of the lossy sweep (duplication at a fifth of
/// each, reordering over 3 slots).
const LOSS_RATES: [f64; 3] = [0.05, 0.10, 0.20];

/// Outcome of one [`net_panel`] run.
pub struct NetPanelReport {
    /// Trials per cell and per sweep point.
    pub trials: usize,
    /// Horizon of every trial (minutes).
    pub duration: f64,
    /// Each clean-transport cell's name and paired comparison.
    pub clean: Vec<(&'static str, Comparison)>,
    /// Each lossy sweep point's loss rate and batch aggregate; reaching
    /// one means every trial of it passed its conservation audit.
    pub lossy: Vec<(f64, NetAggregate)>,
}

impl NetPanelReport {
    /// Clean cells whose runtimes disagreed.
    pub fn failures(&self) -> usize {
        self.clean.iter().filter(|(_, cmp)| !cmp.agrees()).count()
    }

    /// The clean-transport table and the lossy sweep, with the verdict
    /// line when every cell agreed.
    pub fn describe(&self) -> String {
        let (trials, duration) = (self.trials, self.duration);
        let mut out = format!(
            "distributed runtime vs engine on paired seeds\n\
             ({} scenarios × {trials} trials, z = {Z}, horizon {duration} min)\n\
             {:<14} {:>11} {:>12} {:>10} {:>10}  verdict\n",
            self.clean.len(),
            "scenario",
            "engine",
            "distributed",
            "diff",
            "budget"
        );
        for (name, cmp) in &self.clean {
            out.push_str(&format!(
                "{name:<14} {:>11.5} {:>12.5} {:>+10.2e} {:>10.2e}  {}\n",
                cmp.reference,
                cmp.estimate,
                cmp.difference(),
                cmp.half_width + cmp.allowance,
                if cmp.agrees() { "agree" } else { "MISMATCH" }
            ));
        }
        out.push_str(&format!(
            "\nlossy sweep on {} ({trials} trials each; every run must terminate \
             with the conservation audit intact):\n\
             {:<6} {:>11} {:>7} {:>9} {:>9} {:>9}\n",
            NET_SCENARIOS[0].name, "loss", "welfare", "ratio", "retries", "lost", "degraded"
        ));
        let clean_rate = self.clean.first().map_or(f64::NAN, |(_, cmp)| cmp.estimate);
        for (loss, agg) in &self.lossy {
            out.push_str(&format!(
                "{:<6} {:>11.5} {:>7.3} {:>9} {:>9} {:>9}\n",
                format!("{:.0}%", loss * 100.0),
                agg.aggregate.mean_rate,
                agg.aggregate.mean_rate / clean_rate,
                agg.stats.retries,
                agg.stats.msgs_lost,
                agg.degraded_trials
            ));
        }
        if self.failures() == 0 {
            out.push_str(&format!(
                "\nall {} scenarios agree; lossy sweep conserved at every rate\n",
                self.clean.len()
            ));
        }
        out
    }
}

/// Run the panel, 8 trials of 2 000 minutes per cell and sweep point:
/// every clean-transport cell through [`net_vs_engine`] (cell `i` on
/// base seed `seed + 1000·i`), then the first cell under each loss rate
/// of the sweep. Any kernel error aborts the panel.
pub fn net_panel(seed: u64) -> Result<NetPanelReport, NetError> {
    panel(seed, 8, 2_000.0)
}

/// [`net_panel`] at `trials` trials of `duration` minutes.
fn panel(seed: u64, trials: usize, duration: f64) -> Result<NetPanelReport, NetError> {
    let net = NetConfig::default();
    let mut clean = Vec::with_capacity(NET_SCENARIOS.len());
    for (i, cell) in NET_SCENARIOS.iter().enumerate() {
        let (config, source) = cell.build(duration);
        let cell_seed = seed.wrapping_add(i as u64 * 1_000);
        let cmp = net_vs_engine(&config, &source, trials, cell_seed)?;
        clean.push((cell.name, cmp));
    }
    let mut lossy = Vec::with_capacity(LOSS_RATES.len());
    for loss in LOSS_RATES {
        let (mut config, source) = NET_SCENARIOS[0].build(duration);
        config.faults = Some(FaultConfig {
            seed: 7,
            msg: Some(MsgFaults {
                loss_p: loss,
                dup_p: loss / 5.0,
                reorder_window: 3,
            }),
            ..FaultConfig::default()
        });
        let disabled = &mut Recorder::disabled();
        let agg = run_net_trials_observed(&config, &source, &net, trials, seed, None, disabled)?;
        lossy.push((loss, agg));
    }
    Ok(NetPanelReport {
        trials,
        duration,
        clean,
        lossy,
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
    fn small_panel_agrees_and_conserves() {
        let report = panel(42, 4, 900.0).unwrap();
        assert_eq!(report.failures(), 0, "{}", report.describe());
        assert_eq!(report.clean.len(), NET_SCENARIOS.len());
        assert_eq!(report.lossy.len(), LOSS_RATES.len());
        for (loss, agg) in &report.lossy {
            assert!(agg.conservation.holds(), "loss {loss}");
            assert!(agg.stats.msgs_lost > 0, "loss {loss} lost nothing");
        }
        assert!(report
            .describe()
            .ends_with("all 10 scenarios agree; lossy sweep conserved at every rate\n"));
    }

    #[test]
    fn clean_transport_agrees_with_engine() {
        let config = config(10, 2);
        let source = ContactSource::homogeneous(12, 0.1, 1_500.0);
        let cmp = net_vs_engine(&config, &source, 5, 41).unwrap();
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
        let cmp = net_vs_engine(&config, &source, 5, 77).unwrap();
        assert!(cmp.agrees(), "{}", cmp.describe());
    }

    #[test]
    fn lossy_transport_is_bounded_below_clean() {
        use impatience_sim::faults::FaultConfig;
        let mut config = config(8, 2);
        let source = ContactSource::homogeneous(10, 0.1, 1_500.0);
        let clean = net_vs_engine(&config, &source, 4, 91).unwrap();
        config.faults = Some(FaultConfig {
            msg: Some(MsgFaults {
                loss_p: 0.10,
                dup_p: 0.0,
                reorder_window: 0,
            }),
            ..FaultConfig::default()
        });
        let lossy = net_vs_engine(&config, &source, 4, 91).unwrap();
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
