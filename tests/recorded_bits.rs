//! Same bits as before, for the runtimes nothing else in `cargo test`
//! pins: the sharded engine answers to `sharded_engine.rs`; the serial
//! engine (whose full check, `reproduce --all --check`, takes a minute),
//! the hill climber, the core solvers and welfare sums, the discrete
//! engine and the message-passing kernel answer to their rows of
//! `tests/fixtures/pins.tsv` (see `pins/mod.rs`), in debug and in release.

mod pins;

use std::sync::Arc;

use impatience_core::demand::{DemandProfile, DemandRates, Popularity};
use impatience_core::rng::Xoshiro256;
use impatience_core::solver::fixed::{dominant, uniform};
use impatience_core::solver::greedy::greedy_homogeneous;
use impatience_core::solver::het_greedy::greedy_heterogeneous;
use impatience_core::solver::incremental::{Delta, DeltaSolver};
use impatience_core::solver::relaxed::relaxed_optimum;
use impatience_core::types::SystemModel;
use impatience_core::utility::{parse_utility, Custom, DelayUtility, Power, Step};
use impatience_core::welfare::{
    greedy_homogeneous_mixed, social_welfare_heterogeneous, social_welfare_homogeneous,
    social_welfare_homogeneous_discrete, social_welfare_homogeneous_mixed, ContactRates,
    HeterogeneousSystem, UtilityCatalog,
};
use impatience_net::{run_net_trial, ChaosEvent, ChaosKind, NetConfig, NetTrialOutcome};
use impatience_obs::Recorder;
use impatience_sim::config::{ContactSource, SimConfig};
use impatience_sim::engine::run_trial;
use impatience_sim::engine_discrete::{run_trial_discrete, DiscreteSource};
use impatience_sim::faults::{CacheFaults, Churn, ContactDrop, FaultConfig, MsgFaults};
use impatience_sim::metrics::Metrics;
use impatience_sim::policy::PolicyKind;
use impatience_sim::state::EvictionPolicy;
use pins::{digest, Cell};

/// The digest of the bit-exact checkpoint encoding of `metrics` followed
/// by the `Debug` text of `rest` (integers only).
fn outcome_digest(metrics: &Metrics, rest: &dyn std::fmt::Debug) -> String {
    digest(format!("{}{rest:?}", metrics.to_json()).into_bytes())
}

fn net_digest(out: &NetTrialOutcome) -> String {
    let rest = (&out.outcome.final_replicas, out.stats, out.conservation);
    outcome_digest(&out.outcome.metrics, &rest)
}

fn config(utility: Arc<dyn DelayUtility>, faults: Option<FaultConfig>) -> SimConfig {
    let mut builder = SimConfig::builder(12, 2)
        .demand(Popularity::pareto(12, 1.0).demand_rates(0.8))
        .utility(utility)
        .bin(100.0);
    if let Some(faults) = faults {
        builder = builder.faults(faults);
    }
    builder.build()
}

/// Bursty contact drops and cache faults.
fn faulty() -> FaultConfig {
    FaultConfig {
        seed: 13,
        drop: Some(ContactDrop {
            p: 0.2,
            mean_burst: 2.0,
        }),
        cache: Some(CacheFaults { rate: 0.002 }),
        ..FaultConfig::default()
    }
}

fn churn() -> FaultConfig {
    FaultConfig {
        seed: 17,
        churn: Some(Churn {
            mean_up: 300.0,
            mean_down: 60.0,
        }),
        ..FaultConfig::default()
    }
}

/// Step settles open requests at h(∞) = 0; Power(0.5) is unbounded
/// below, so it settles at h(age) and exercises that arm.
fn utilities() -> [(&'static str, Arc<dyn DelayUtility>); 2] {
    [
        ("step", Arc::new(Step::new(10.0))),
        ("power", Arc::new(Power::new(0.5))),
    ]
}

fn serial_cells() -> Vec<Cell> {
    let (nodes, mu, duration) = (12, 0.05, 1_500.0);
    let source = ContactSource::homogeneous(nodes, mu, duration);
    let policies = |config: &SimConfig| {
        let system = SystemModel::pure_p2p(nodes, 2, mu);
        [
            PolicyKind::qcr_default(),
            PolicyKind::Static {
                label: "OPT",
                counts: greedy_homogeneous(&system, &config.demand, config.utility.as_ref()),
            },
            PolicyKind::Static {
                label: "DOM",
                counts: dominant(&config.demand, nodes, 2),
            },
        ]
    };

    // (cell, config, source, policy, seed).
    let mut cells = Vec::new();
    for (name, utility) in utilities() {
        for (f, faults) in [None, Some(faulty())].into_iter().enumerate() {
            let config = config(utility.clone(), faults);
            for policy in policies(&config) {
                for seed in 1..=2u64 {
                    cells.push((
                        format!("{name}, faults {f}, {}, seed {seed}", policy.label()),
                        config.clone(),
                        source.clone(),
                        policy.clone(),
                        seed,
                    ));
                }
            }
        }
    }
    // A replayed trace (the cursor source) under QCR…
    let step = config(utilities()[0].1.clone(), None);
    let trace = impatience_traces::ContactStream::poisson(
        nodes,
        mu,
        duration,
        Xoshiro256::seed_from_u64(99),
    )
    .collect_trace();
    cells.push((
        "trace source".into(),
        step.clone(),
        ContactSource::trace(trace),
        PolicyKind::qcr_default(),
        3,
    ));
    // …and a demand reversal half way, under the pinned pre-shift OPT.
    let mut shifted = step.clone();
    shifted.demand_shifts = vec![(
        duration / 2.0,
        DemandRates::new(step.demand.rates().iter().rev().copied().collect()),
    )];
    let [_, opt, _] = policies(&step);
    cells.push(("demand shift".into(), shifted, source.clone(), opt, 3));
    // Churn, a truncated trace, and LRU and FIFO eviction under QCR.
    let truncated = FaultConfig {
        seed: 13,
        truncate_fraction: Some(0.7),
        ..FaultConfig::default()
    };
    for (name, faults) in [("churn", churn()), ("truncate 0.7", truncated)] {
        let config = config(step.utility.clone(), Some(faults));
        let qcr = PolicyKind::qcr_default();
        cells.push((name.into(), config, source.clone(), qcr, 3));
    }
    for eviction in [EvictionPolicy::Lru, EvictionPolicy::Fifo] {
        // ρ = 4: at ρ = 2 a node's one non-sticky slot is every rule's victim.
        let config = SimConfig::builder(12, 4)
            .demand(step.demand.clone())
            .utility(step.utility.clone())
            .bin(100.0)
            .eviction(eviction)
            .build();
        let name = format!("{eviction:?} eviction");
        cells.push((name, config, source.clone(), PolicyKind::qcr_default(), 3));
    }

    cells
        .into_iter()
        .map(|(cell, config, source, policy, seed)| {
            let out = run_trial(&config, &source, policy, seed);
            assert!(out.metrics.fulfillments() > 0, "{cell}: nothing happened");
            let digest = outcome_digest(&out.metrics, &out.final_replicas);
            (cell, digest)
        })
        .collect()
}

#[test]
fn serial_engine_outputs_equal_the_recorded_ones() {
    pins::check("serial", &serial_cells());
}

fn hill_cells() -> Vec<Cell> {
    // (cell, config, seed).
    let mut cells = Vec::new();
    for (name, utility) in utilities() {
        for (f, faults) in [None, Some(faulty())].into_iter().enumerate() {
            for seed in 1..=2u64 {
                let config = config(utility.clone(), faults.clone());
                cells.push((format!("{name}, faults {f}, seed {seed}"), config, seed));
            }
        }
    }
    // Four servers of eight clients under a waiting cost (G(0) = −∞), with
    // the last item never requested: clients hold no cache, so never move.
    let mut rates = Popularity::pareto(12, 1.0)
        .demand_rates(0.8)
        .rates()
        .to_vec();
    rates[11] = 0.0;
    let dedicated = SimConfig::builder(12, 4)
        .demand(DemandRates::new(rates))
        .utility(Arc::new(Power::new(0.0)))
        .bin(100.0)
        .dedicated_servers(4)
        .build();
    cells.push(("dedicated, undemanded item".into(), dedicated, 3));

    let source = ContactSource::homogeneous(12, 0.05, 1_500.0);
    cells
        .into_iter()
        .map(|(cell, config, seed)| {
            let out = run_trial(&config, &source, PolicyKind::HillClimb, seed);
            let moved = out.metrics.transmissions > 0;
            assert!(moved, "{cell}: the climber never moved");
            let digest = outcome_digest(&out.metrics, &out.final_replicas);
            (cell, digest)
        })
        .collect()
}

#[test]
fn hill_climber_outputs_equal_the_recorded_ones() {
    pins::check("hill", &hill_cells());
}

/// The digest of the little-endian bytes of `words`.
fn fold(words: &[u64]) -> String {
    digest(words.iter().flat_map(|w| w.to_le_bytes()))
}

/// The allocation's counts, one word each.
fn count_words(counts: &[u32]) -> impl Iterator<Item = u64> + '_ {
    counts.iter().map(|&c| u64::from(c))
}

fn core_cells() -> Vec<Cell> {
    let p2p = SystemModel::pure_p2p(12, 3, 0.05);
    let dedicated = SystemModel::dedicated(10, 6, 3, 0.05);
    let demand = Popularity::pareto(10, 1.0).demand_rates(1.0);
    let items = demand.items();
    let mut cells = Vec::new();

    // Per utility: the greedy and relaxed optima, the continuous welfare of
    // OPT and UNI, the discrete welfare of OPT, and a `DeltaSolver` after
    // each of four seeded demand deltas.
    for (spec, system) in [
        ("step:5", p2p),
        ("exp:0.5", p2p),
        ("power:0.5", p2p),
        ("neglog", dedicated),
        ("power:1.5", dedicated),
    ] {
        let utility = parse_utility(spec).unwrap();
        let u = utility.as_ref();
        let mut words = Vec::new();
        let opt = greedy_homogeneous(&system, &demand, u);
        words.extend(count_words(opt.counts()));
        let relaxed = relaxed_optimum(&system, &demand, u);
        words.extend(relaxed.x.iter().map(|x| x.to_bits()));
        words.push(relaxed.level.to_bits());
        let uni = uniform(items, system.servers(), system.cache_capacity);
        for counts in [&opt, &uni] {
            let w = social_welfare_homogeneous(&system, &demand, u, &counts.as_f64());
            words.push(w.to_bits());
        }
        let w = social_welfare_homogeneous_discrete(&system, &demand, u, &opt.as_f64(), 0.5);
        words.push(w.to_bits());
        let mut solver = DeltaSolver::new(system, &demand, utility.clone());
        let mut rng = Xoshiro256::seed_from_u64(7);
        for _ in 0..4 {
            let (item, rate) = (rng.index(items), rng.range(0.0, 2.0));
            solver.apply(&[Delta::Demand { item, rate }]).unwrap();
            words.extend(count_words(solver.counts().counts()));
            words.push(solver.welfare().to_bits());
        }
        cells.push((spec.to_string(), fold(&words)));
    }

    // The numeric quadratures of a family without closed forms.
    let custom = Custom::new(|t| 1.0 / (1.0 + t), 1.0, 0.0);
    let words: Vec<u64> = [0.05, 0.5, 2.0]
        .iter()
        .flat_map(|&v| [custom.gain(v).to_bits(), custom.phi(v, 0.05).to_bits()])
        .collect();
    cells.push(("custom 1/(1+t)".into(), fold(&words)));

    // A catalog alternating an urgent and a patient utility.
    let catalog = UtilityCatalog::new(
        (0..items)
            .map(|i| parse_utility(if i % 2 == 0 { "exp:2" } else { "exp:0.01" }).unwrap())
            .collect(),
    );
    let mixed = greedy_homogeneous_mixed(&p2p, &demand, &catalog);
    let mut words: Vec<u64> = count_words(mixed.counts()).collect();
    for counts in [&mixed, &uniform(items, 12, 3)] {
        let w = social_welfare_homogeneous_mixed(&p2p, &demand, &catalog, &counts.as_f64());
        words.push(w.to_bits());
    }
    cells.push(("mixed catalog".into(), fold(&words)));

    // The heterogeneous greedy on a seeded 8-node rate matrix, with a
    // bounded utility and with one unbounded below.
    let mut rng = Xoshiro256::seed_from_u64(11);
    let rates = ContactRates::from_fn(8, |_, _| rng.range(0.0, 0.2));
    let system = HeterogeneousSystem::pure_p2p(rates, 2);
    let demand6 = Popularity::pareto(6, 1.0).demand_rates(1.0);
    let profile = DemandProfile::uniform(6, 8);
    for spec in ["step:5", "power:0.5"] {
        let utility = parse_utility(spec).unwrap();
        let u = utility.as_ref();
        let alloc = greedy_heterogeneous(&system, &demand6, &profile, u);
        let mut words: Vec<u64> = (0..6)
            .flat_map(|i| (0..8).map(move |s| (i, s)))
            .map(|(i, s)| u64::from(alloc.holds(i, s)))
            .collect();
        words.extend(count_words(alloc.to_counts().counts()));
        let w = social_welfare_heterogeneous(&system, &alloc, &demand6, &profile, u);
        words.push(w.to_bits());
        cells.push((format!("het {spec}"), fold(&words)));
    }
    cells
}

#[test]
fn core_outputs_equal_the_recorded_ones() {
    pins::check("core", &core_cells());
}

fn discrete_cells() -> Vec<Cell> {
    let source = DiscreteSource {
        nodes: 12,
        mu: 0.05,
        delta: 0.5,
        slots: 3_000,
    };
    let mut cells = Vec::new();
    for (name, utility) in utilities() {
        for (f, faults) in [None, Some(faulty())].into_iter().enumerate() {
            for seed in 1..=3u64 {
                let out = run_trial_discrete(
                    &config(utility.clone(), faults.clone()),
                    &source,
                    PolicyKind::qcr_default(),
                    seed,
                    &mut Recorder::disabled(),
                );
                assert!(out.metrics.mandates_created > 0, "QCR must be live");
                if f == 1 {
                    assert!(out.metrics.contacts_dropped > 0 && out.metrics.cache_faults > 0);
                }
                let digest = outcome_digest(&out.metrics, &out.final_replicas);
                cells.push((format!("{name}, faults {f}, seed {seed}"), digest));
            }
        }
    }
    cells
}

#[test]
fn discrete_engine_outputs_equal_the_recorded_ones() {
    pins::check("discrete", &discrete_cells());
}

fn net_cells() -> Vec<Cell> {
    let source = ContactSource::homogeneous(12, 0.08, 1_500.0);
    let lossy = FaultConfig {
        seed: 41,
        msg: Some(MsgFaults {
            loss_p: 0.10,
            dup_p: 0.02,
            reorder_window: 3,
        }),
        ..FaultConfig::default()
    };
    let mut cells = Vec::new();
    for (f, faults) in [None, Some(lossy)].into_iter().enumerate() {
        for seed in 1..=2u64 {
            let out = run_net_trial(
                &config(Arc::new(Step::new(10.0)), faults.clone()),
                &source,
                &NetConfig::default(),
                seed,
            )
            .expect("the conservation audit passes");
            assert!(out.conservation.minted > 0 && out.stats.handoffs_applied > 0);
            assert_eq!(out.stats.msgs_lost > 0, f == 1, "loss fires iff injected");
            cells.push((format!("faults {f}, seed {seed}"), net_digest(&out)));
        }
    }
    cells
}

#[test]
fn net_kernel_outputs_equal_the_recorded_ones() {
    pins::check("net", &net_cells());
}

fn net_path_cells() -> Vec<Cell> {
    let source = ContactSource::homogeneous(12, 0.08, 1_500.0);
    let step = || config(Arc::new(Step::new(10.0)), None);
    let with_faults = |faults| config(Arc::new(Step::new(10.0)), Some(faults));
    // The ledger's `net_qcr` regime: 50 nodes, many frames in flight.
    let wide = ContactSource::homogeneous(50, 0.05, 1_000.0);
    let net_qcr = |faults: Option<FaultConfig>| {
        let builder = SimConfig::builder(50, 5)
            .demand(Popularity::pareto(50, 1.0).demand_rates(1.0))
            .utility(Arc::new(Step::new(10.0)))
            .bin(60.0);
        match faults {
            Some(faults) => builder.faults(faults).build(),
            None => builder.build(),
        }
    };
    let lossy = FaultConfig {
        seed: 41,
        msg: Some(MsgFaults {
            loss_p: 0.1,
            dup_p: 0.05,
            reorder_window: 3,
        }),
        ..FaultConfig::default()
    };
    let mut shifted = step();
    shifted.demand_shifts = vec![(
        750.0,
        DemandRates::new(shifted.demand.rates().iter().rev().copied().collect()),
    )];
    let dedicated = SimConfig::builder(12, 4)
        .demand(Popularity::pareto(12, 1.0).demand_rates(0.8))
        .utility(Arc::new(Step::new(10.0)))
        .bin(100.0)
        .dedicated_servers(4)
        .build();
    let chaos = |t: f64, node: u32, kind: ChaosKind| NetConfig {
        chaos: vec![ChaosEvent { t, node, kind }],
        ..NetConfig::default()
    };
    // Power(0.5) is unbounded below: expired and horizon requests settle
    // at h(age), the arm Step's h(∞) = 0 never reaches.
    let deadline = NetConfig {
        deadline: Some(30.0),
        ..NetConfig::default()
    };
    type Check = fn(&NetTrialOutcome) -> bool;
    // (cell, source, config, net, what must have happened), all on seed 3.
    let cells: [(&str, &ContactSource, SimConfig, NetConfig, Check); 9] = [
        (
            "demand shift",
            &source,
            shifted,
            NetConfig::default(),
            |_| true,
        ),
        (
            "dedicated 4",
            &source,
            dedicated,
            NetConfig::default(),
            |o| o.outcome.metrics.immediate_hits == 0,
        ),
        (
            "drop + cache faults",
            &source,
            with_faults(faulty()),
            NetConfig::default(),
            |o| o.outcome.metrics.contacts_dropped > 0 && o.outcome.metrics.cache_faults > 0,
        ),
        (
            "churn",
            &source,
            with_faults(churn()),
            NetConfig::default(),
            |o| o.stats.crashes > 0,
        ),
        (
            "deadline",
            &source,
            config(Arc::new(Power::new(0.5)), None),
            deadline,
            |o| o.stats.requests_expired > 0,
        ),
        (
            "chaos kill",
            &source,
            step(),
            chaos(500.0, 3, ChaosKind::Kill { down_for: 200.0 }),
            |o| o.stats.crashes == 1 && o.stats.restarts == 1,
        ),
        (
            "chaos stall",
            &source,
            step(),
            chaos(300.0, 2, ChaosKind::Stall),
            |o| o.degraded && o.stats.stalls == 1,
        ),
        (
            "net_qcr clean",
            &wide,
            net_qcr(None),
            NetConfig::default(),
            |o| o.stats.msgs_lost == 0 && o.stats.handoffs_applied > 0,
        ),
        (
            "net_qcr lossy",
            &wide,
            net_qcr(Some(lossy)),
            NetConfig::default(),
            |o| o.stats.msgs_lost > 0 && o.stats.msgs_duplicated > 0,
        ),
    ];
    cells
        .into_iter()
        .map(|(cell, source, config, net, check)| {
            let out =
                run_net_trial(&config, source, &net, 3).expect("the conservation audit passes");
            assert!(check(&out), "{cell}: the path was not taken");
            (cell.to_string(), net_digest(&out))
        })
        .collect()
}

#[test]
fn net_kernel_paths_equal_the_recorded_ones() {
    pins::check("net_path", &net_path_cells());
}

/// Rewrites this binary's rows of the pin table from the tree.
#[test]
#[ignore = "rewrites tests/fixtures/pins.tsv"]
fn record_pins() {
    pins::record(&[
        ("serial", serial_cells()),
        ("hill", hill_cells()),
        ("core", core_cells()),
        ("discrete", discrete_cells()),
        ("net", net_cells()),
        ("net_path", net_path_cells()),
    ]);
}

/// The report names each moved cell as `old | new`, and a row and a
/// computed cell each need the other.
#[test]
fn the_pin_report_names_every_difference() {
    let table = pins::read();
    let cells = pins::recorded(&table, "core");
    assert_eq!(cells.len(), 9);
    assert!(pins::report(&table, "core", &cells).is_empty());

    // One digit edited: exactly that cell moves.
    let (name, value) = &cells[4];
    let mut edited_value = value.clone();
    let last = edited_value.pop();
    edited_value.push(if last == Some('0') { '1' } else { '0' });
    let row = |value: &str| format!("core/{name}\t{value}\t");
    let edited = table.replacen(&row(value), &row(&edited_value), 1);
    assert_ne!(edited, table);
    let moved = pins::report(&edited, "core", &cells);
    assert_eq!(moved, [format!("core/{name}: {edited_value} | {value}")]);

    // A row with no computed cell, and a computed cell with no row.
    let missing = pins::report(&table, "core", &cells[1..]);
    assert_eq!(missing.len(), 1);
    assert!(missing[0].starts_with(&format!("core/{}: no computed cell", cells[0].0)));
    let mut extra = cells.clone();
    extra.push(("unrecorded".into(), "0".into()));
    assert_eq!(
        pins::report(&table, "core", &extra),
        ["core/unrecorded: no row (computed 0)"]
    );
}
