//! Extensions beyond the paper's evaluated configurations: dedicated-node
//! populations in the simulator (enabling the `h(0⁺) = ∞` families) and
//! evolving demand (§7's "clustered and evolving demands" future work).

use std::sync::Arc;

use age_of_impatience::prelude::*;
use impatience_core::demand::DemandProfile;
use impatience_core::utility::DelayUtility;
use impatience_sim::config::SimConfig;
use impatience_sim::engine::run_trial;
use impatience_sim::policy::PolicyKind;

#[test]
fn dedicated_population_runs_time_critical_utilities() {
    // 10 throwbox servers + 40 clients; inverse-power impatience
    // (h(0+)=∞) is legal because clients can never self-serve.
    let nodes = 50;
    let servers = 10;
    let items = 20;
    let rho = 4;
    let utility: Arc<dyn DelayUtility> = Arc::new(Power::new(1.5));
    let config = SimConfig::builder(items, rho)
        .demand(Popularity::pareto(items, 1.0).demand_rates(1.0))
        .profile(DemandProfile::uniform(items, nodes - servers))
        .utility(utility)
        .dedicated_servers(servers)
        .bin(200.0)
        .build();
    let source = ContactSource::homogeneous(nodes, 0.05, 2_000.0);
    let out = run_trial(&config, &source, PolicyKind::qcr_default(), 3);

    assert!(
        out.metrics.fulfillments() > 100,
        "requests should be served"
    );
    assert_eq!(
        out.metrics.immediate_hits, 0,
        "clients have no caches, so no self-service"
    );
    // The global cache budget is ρ·servers, not ρ·nodes.
    let total: u32 = out.final_replicas.iter().sum();
    assert_eq!(total as usize, rho * servers);
    // Time-critical gains are positive and finite.
    assert!(out.metrics.average_observed_rate(0.2) > 0.0);
}

#[test]
fn dedicated_population_that_does_not_fit_is_reported_as_such() {
    // More servers than nodes: every runtime must say so, none may get
    // as far as sizing a client population of 10 − 20.
    use impatience_net::{run_net_trial, NetConfig};
    use impatience_obs::Recorder;
    use impatience_sim::runner::{run_campaign, CampaignOptions};
    let mut config = SimConfig::builder(10, 2).build();
    config.dedicated_servers = Some(20);
    let source = ContactSource::homogeneous(10, 0.05, 100.0);
    let message = "dedicated population needs 1 ≤ servers < nodes (got 20 of 10)";

    let engine =
        std::panic::AssertUnwindSafe(|| run_trial(&config, &source, PolicyKind::qcr_default(), 1));
    let panic = std::panic::catch_unwind(engine).expect_err("the engine rejects the split");
    assert_eq!(
        panic.downcast_ref::<String>().map(String::as_str),
        Some(message)
    );
    let net = run_net_trial(&config, &source, &NetConfig::default(), 1)
        .expect_err("the kernel rejects the split");
    assert!(net.to_string().ends_with(message), "{net}");
    let campaign = run_campaign(
        &config,
        &source,
        &PolicyKind::qcr_default(),
        2,
        1,
        &CampaignOptions::default(),
        &mut Recorder::disabled(),
    )
    .expect_err("the campaign rejects the split");
    assert!(campaign.to_string().ends_with(message), "{campaign}");
}

#[test]
fn dedicated_static_opt_beats_uniform() {
    // The dedicated analytic OPT (Theorem 2, dedicated closed forms)
    // simulated against UNI on throwboxes.
    let nodes = 40;
    let servers = 8;
    let items = 16;
    let rho = 2;
    let mu = 0.05;
    let utility = Power::new(1.5);
    let system = SystemModel::dedicated(nodes - servers, servers, rho, mu);
    let demand = Popularity::pareto(items, 1.0).demand_rates(1.0);
    let opt = greedy_homogeneous(&system, &demand, &utility);

    let config = SimConfig::builder(items, rho)
        .demand(demand.clone())
        .profile(DemandProfile::uniform(items, nodes - servers))
        .utility(Arc::new(utility))
        .dedicated_servers(servers)
        .bin(300.0)
        .build();
    let source = ContactSource::homogeneous(nodes, mu, 3_000.0);
    let run = |counts, label| {
        run_trials(
            &config,
            &source,
            &PolicyKind::Static { label, counts },
            5,
            17,
        )
        .mean_rate
    };
    let u_opt = run(opt, "OPT");
    let u_uni = run(uniform(items, servers, rho), "UNI");
    assert!(
        u_opt > u_uni,
        "dedicated OPT ({u_opt:.4}) should beat UNI ({u_uni:.4})"
    );
}

#[test]
fn qcr_adapts_to_a_demand_shift_but_pinned_opt_cannot() {
    // §7: "distributed mechanisms like QCR naturally adapt to a dynamic
    // demand". Popularity reverses halfway through; compare QCR's final
    // allocation against the post-shift demand, and its utility against
    // an OPT pinned for the *pre-shift* demand.
    let items = 30;
    let nodes = 50;
    let rho = 5;
    let mu = 0.05;
    let duration = 8_000.0;
    let utility: Arc<dyn DelayUtility> = Arc::new(Step::new(1.0));

    let before = Popularity::pareto(items, 1.0).demand_rates(1.0);
    let reversed = DemandRates::new(before.rates().iter().rev().copied().collect());

    let config = SimConfig::builder(items, rho)
        .demand(before.clone())
        .utility(utility.clone())
        .demand_shift(duration / 2.0, reversed.clone())
        .bin(250.0)
        .warmup_fraction(0.6) // summarize the post-shift regime
        .build();
    let source = ContactSource::homogeneous(nodes, mu, duration);

    let system = SystemModel::pure_p2p(nodes, rho, mu);
    let stale_opt = greedy_homogeneous(&system, &before, utility.as_ref());
    let fresh_opt = greedy_homogeneous(&system, &reversed, utility.as_ref());

    let qcr = run_trials(&config, &source, &PolicyKind::qcr_default(), 6, 5);
    let stale = run_trials(
        &config,
        &source,
        &PolicyKind::Static {
            label: "OPT-stale",
            counts: stale_opt,
        },
        6,
        5,
    );
    let fresh = run_trials(
        &config,
        &source,
        &PolicyKind::Static {
            label: "OPT-fresh",
            counts: fresh_opt.clone(),
        },
        6,
        5,
    );

    assert!(
        qcr.mean_rate > stale.mean_rate,
        "post-shift, adaptive QCR ({:.4}) must beat the stale pinned OPT ({:.4})",
        qcr.mean_rate,
        stale.mean_rate
    );
    assert!(
        qcr.mean_rate <= fresh.mean_rate * 1.05,
        "QCR ({:.4}) should not beat the fresh oracle ({:.4}) by more than noise",
        qcr.mean_rate,
        fresh.mean_rate
    );

    // Final allocation tracks the *new* demand ordering: the item that
    // became most popular holds more replicas than the dethroned one.
    let final_x = &qcr.mean_final_replicas;
    assert!(
        final_x[items - 1] > final_x[0],
        "replicas should have migrated to the new head ({:.1} vs {:.1})",
        final_x[items - 1],
        final_x[0]
    );
}

#[test]
fn demand_shift_to_zero_quiesces_arrivals() {
    let items = 5;
    let config = SimConfig::builder(items, 2)
        .demand(Popularity::uniform(items).demand_rates(2.0))
        .utility(Arc::new(Step::new(10.0)))
        .demand_shift(100.0, DemandRates::new(vec![0.0; items]))
        .bin(50.0)
        .build();
    let source = ContactSource::homogeneous(10, 0.05, 1_000.0);
    let out = run_trial(&config, &source, PolicyKind::qcr_default(), 1);
    // ~2/min for 100 min, then silence.
    assert!(out.metrics.requests_created > 120);
    assert!(
        out.metrics.requests_created < 350,
        "arrivals should stop at the shift ({} created)",
        out.metrics.requests_created
    );
}

#[test]
fn clustered_demand_profile_biases_origins() {
    // Community-clustered π: items are requested (and thus fulfilled)
    // predominantly within their home community.
    let items = 4;
    let nodes = 12;
    let profile = DemandProfile::clustered(items, nodes, 4, 20.0);
    let config = SimConfig::builder(items, 2)
        .demand(Popularity::uniform(items).demand_rates(1.0))
        .profile(profile)
        .utility(Arc::new(Step::new(10.0)))
        .bin(100.0)
        .build();
    let source = ContactSource::homogeneous(nodes, 0.1, 1_000.0);
    let out = run_trial(&config, &source, PolicyKind::qcr_default(), 9);
    assert!(out.metrics.requests_created > 500);
}
