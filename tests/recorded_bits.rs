//! Same bits as before, for the runtimes nothing else in `cargo test`
//! pins: the sharded engine answers to the digests in
//! `sharded_engine.rs`; the serial engine (whose full check,
//! `reproduce --all --check`, takes a minute), the discrete engine and
//! the message-passing kernel answer to the constants below.
//!
//! The discrete and clean/lossy net constants were recorded at commit
//! 0c7b659 (the parent of the change that put one `QcrRules` and one
//! `Trial` frame under all four runtimes), the serial ones at 1ace9c3
//! (the parent of the change that made the event-merging loop a lane
//! driver), the net path cells (shift, dedicated, drops, churn, deadline,
//! chaos) at 6c1534d (the parent of the change that made the net kernel
//! call the engine's seeding, demand, admission and settlement), the core
//! solver and welfare cells at c55b17a (the parent of the change that left
//! one greedy fill, one welfare sum and one gain dispatch in the core),
//! the serial churn, truncation and LRU/FIFO cells at 70030ac (the parent
//! of the change that made the sharded engine call the serial engine's
//! placement, replica book, fault clock and gain booking), the net cells
//! of the ledger's `net_qcr` shape at 09dc438 (the parent of the change
//! that took the periodic timers off the kernel's message heap), the
//! hill climber cells at 741be58 (the parent of the change that made the
//! climber read the greedy's gain table and marginal rule),
//! each by running this file there, in debug and in release: a cell whose
//! digest moves has changed a float sum, an RNG draw or an event order.

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
use impatience_net::{run_net_trial, ChaosEvent, ChaosKind, NetConfig};
use impatience_sim::config::{ContactSource, SimConfig};
use impatience_sim::engine::run_trial;
use impatience_sim::engine_discrete::{run_trial_discrete, DiscreteSource};
use impatience_sim::faults::{CacheFaults, Churn, ContactDrop, FaultConfig, MsgFaults};
use impatience_sim::metrics::Metrics;
use impatience_sim::policy::PolicyKind;
use impatience_sim::state::EvictionPolicy;

/// FNV-1a over the bit-exact checkpoint encoding of `metrics` followed
/// by the `Debug` text of `rest` (integers only).
fn digest(metrics: &Metrics, rest: &dyn std::fmt::Debug) -> u64 {
    let text = format!("{}{rest:?}", metrics.to_json());
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
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

#[test]
fn serial_engine_outputs_equal_the_recorded_ones() {
    let (nodes, mu, duration) = (12, 0.05, 1_500.0);
    let source = ContactSource::homogeneous(nodes, mu, duration);
    let faulty = FaultConfig {
        seed: 13,
        drop: Some(ContactDrop {
            p: 0.2,
            mean_burst: 2.0,
        }),
        cache: Some(CacheFaults { rate: 0.002 }),
        ..FaultConfig::default()
    };
    let utilities: [(&str, Arc<dyn DelayUtility>); 2] = [
        ("step", Arc::new(Step::new(10.0))),
        ("power", Arc::new(Power::new(0.5))),
    ];
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

    // (cell, config, source, policy, seed), in the order of `RECORDED`.
    let mut cells = Vec::new();
    for (name, utility) in &utilities {
        for (f, faults) in [None, Some(faulty.clone())].into_iter().enumerate() {
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
    let step = config(utilities[0].1.clone(), None);
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
    let churn = FaultConfig {
        seed: 17,
        churn: Some(Churn {
            mean_up: 300.0,
            mean_down: 60.0,
        }),
        ..FaultConfig::default()
    };
    let truncated = FaultConfig {
        seed: 13,
        truncate_fraction: Some(0.7),
        ..FaultConfig::default()
    };
    for (name, faults) in [("churn", churn), ("truncate 0.7", truncated)] {
        let config = config(utilities[0].1.clone(), Some(faults));
        cells.push((
            name.into(),
            config,
            source.clone(),
            PolicyKind::qcr_default(),
            3,
        ));
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

    const RECORDED: [u64; 30] = [
        0x72c1_767c_e60b_49ab,
        0xe70d_277f_16a8_fb7b,
        0x1d2a_0bf8_21cb_9e71,
        0xf9a4_c602_74c7_ab46,
        0xeb94_1c24_56b1_8387,
        0x48ca_4bf4_4439_885a,
        0x838e_cc91_cb1b_89eb,
        0x52b4_a554_7aa2_d065,
        0xebf0_e687_25d9_2a38,
        0x8d25_1a5b_c782_1671,
        0xfd81_887f_701d_dcb2,
        0x8857_3f97_795f_4665,
        0x538d_4e34_ad39_de6a,
        0x4e8c_9d27_ff18_8d86,
        0x6ef4_2985_3224_724d,
        0x9479_0936_c158_8ebc,
        0x4621_11fa_5da5_398b,
        0xb0b9_f5ba_cf75_1dc7,
        0xaebe_7870_ff81_61d9,
        0x484b_527d_525c_941e,
        0x993a_d4cd_966e_72e4,
        0xcc37_3ce8_a5f7_904a,
        0x511f_b516_4f33_0284,
        0x93d7_8b47_6dca_796c,
        0x031c_048d_f6bc_b76c,
        0x0203_87cc_2992_5733,
        0x36fc_a284_b60a_52f0,
        0xac24_55e4_32da_be84,
        0x9d67_28ab_86ad_6661,
        0xd51d_cb63_1b5d_baf0,
    ];
    assert_eq!(cells.len(), RECORDED.len());
    let moved: Vec<String> = cells
        .iter()
        .zip(RECORDED)
        .filter_map(|((cell, config, source, policy, seed), recorded)| {
            let out = run_trial(config, source, policy.clone(), *seed);
            assert!(out.metrics.fulfillments() > 0, "{cell}: nothing happened");
            let got = digest(&out.metrics, &out.final_replicas);
            (got != recorded).then(|| format!("{cell}: {got:#018x}"))
        })
        .collect();
    assert!(moved.is_empty(), "digests moved:\n{}", moved.join("\n"));
}

#[test]
fn hill_climber_outputs_equal_the_recorded_ones() {
    let (nodes, mu, duration) = (12, 0.05, 1_500.0);
    let source = ContactSource::homogeneous(nodes, mu, duration);
    let faulty = FaultConfig {
        seed: 13,
        drop: Some(ContactDrop {
            p: 0.2,
            mean_burst: 2.0,
        }),
        cache: Some(CacheFaults { rate: 0.002 }),
        ..FaultConfig::default()
    };
    let utilities: [(&str, Arc<dyn DelayUtility>); 2] = [
        ("step", Arc::new(Step::new(10.0))),
        ("power", Arc::new(Power::new(0.5))),
    ];
    // (cell, config, seed), in the order of `RECORDED`.
    let mut cells = Vec::new();
    for (name, utility) in &utilities {
        for (f, faults) in [None, Some(faulty.clone())].into_iter().enumerate() {
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

    const RECORDED: [u64; 9] = [
        0xd63d_9928_2fde_a3d7,
        0xe090_7b90_de3f_22ca,
        0x8c62_493c_bec3_6f25,
        0xec63_24e8_5b82_5ebe,
        0x2666_4f79_1944_f1b0,
        0x8652_c02b_5937_a3b4,
        0x22da_2bac_ba4f_163e,
        0xe103_1e2f_45c8_d5af,
        0x6c35_95ff_a782_ffae,
    ];
    assert_eq!(cells.len(), RECORDED.len());
    let moved: Vec<String> = cells
        .iter()
        .zip(RECORDED)
        .filter_map(|((cell, config, seed), recorded)| {
            let out = run_trial(config, &source, PolicyKind::HillClimb, *seed);
            assert!(
                out.metrics.transmissions > 0,
                "{cell}: the climber never moved"
            );
            let got = digest(&out.metrics, &out.final_replicas);
            (got != recorded).then(|| format!("{cell}: {got:#018x}"))
        })
        .collect();
    assert!(moved.is_empty(), "digests moved:\n{}", moved.join("\n"));
}

/// FNV-1a over the little-endian bytes of `words`.
fn fold(words: &[u64]) -> u64 {
    words
        .iter()
        .flat_map(|w| w.to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

/// The allocation's counts, one word each.
fn count_words(counts: &[u32]) -> impl Iterator<Item = u64> + '_ {
    counts.iter().map(|&c| u64::from(c))
}

#[test]
fn core_outputs_equal_the_recorded_ones() {
    let p2p = SystemModel::pure_p2p(12, 3, 0.05);
    let dedicated = SystemModel::dedicated(10, 6, 3, 0.05);
    let demand = Popularity::pareto(10, 1.0).demand_rates(1.0);
    let items = demand.items();
    let mut cells: Vec<(String, Vec<u64>)> = Vec::new();

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
        cells.push((spec.to_string(), words));
    }

    // The numeric quadratures of a family without closed forms.
    let custom = Custom::new(|t| 1.0 / (1.0 + t), 1.0, 0.0);
    let words = [0.05, 0.5, 2.0]
        .iter()
        .flat_map(|&v| [custom.gain(v).to_bits(), custom.phi(v, 0.05).to_bits()])
        .collect();
    cells.push(("custom 1/(1+t)".into(), words));

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
    cells.push(("mixed catalog".into(), words));

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
        cells.push((format!("het {spec}"), words));
    }

    const RECORDED: [u64; 9] = [
        0x0663_f126_f7fb_b747,
        0x51f7_86ab_9a4b_f181,
        0xdc82_9aeb_1ec8_62ec,
        0xdfa8_3883_6dae_7633,
        0xf6e8_7f84_7351_5cfc,
        0xbd5a_bcfc_ecee_0f0d,
        0xb552_20e3_4cce_9a26,
        0x3d36_5af7_8484_3aa2,
        0xd532_54cd_0721_e389,
    ];
    assert_eq!(cells.len(), RECORDED.len());
    let moved: Vec<String> = cells
        .iter()
        .zip(RECORDED)
        .filter_map(|((cell, words), recorded)| {
            let got = fold(words);
            (got != recorded).then(|| format!("{cell}: {got:#018x}"))
        })
        .collect();
    assert!(moved.is_empty(), "digests moved:\n{}", moved.join("\n"));
}

#[test]
fn discrete_engine_outputs_equal_the_recorded_ones() {
    let source = DiscreteSource {
        nodes: 12,
        mu: 0.05,
        delta: 0.5,
        slots: 3_000,
    };
    let faulty = FaultConfig {
        seed: 13,
        drop: Some(ContactDrop {
            p: 0.2,
            mean_burst: 2.0,
        }),
        cache: Some(CacheFaults { rate: 0.002 }),
        ..FaultConfig::default()
    };
    // Step settles open requests at h(∞) = 0; Power(0.5) is unbounded
    // below, so it settles at h(age) and exercises that arm.
    let utilities: [(&str, Arc<dyn DelayUtility>); 2] = [
        ("step", Arc::new(Step::new(10.0))),
        ("power", Arc::new(Power::new(0.5))),
    ];
    let recorded: [[[u64; 3]; 2]; 2] = [
        [
            [
                0x22ed_af90_6b29_3de4,
                0x7acb_2b0e_9320_0094,
                0x2f6c_d64c_089a_40d0,
            ],
            [
                0xb51d_467f_16db_3cc2,
                0x0329_94dc_8775_bc3a,
                0x9fff_a2e1_cfe0_2be5,
            ],
        ],
        [
            [
                0x49d0_2651_e80e_e5dc,
                0x82e9_d657_4254_8833,
                0x89ea_f062_c048_5bbe,
            ],
            [
                0x1483_0ec7_2a03_bfdc,
                0x3795_3747_2d3b_68b8,
                0x438e_915c_3d1f_c233,
            ],
        ],
    ];
    for (u, (name, utility)) in utilities.iter().enumerate() {
        for (f, faults) in [None, Some(faulty.clone())].into_iter().enumerate() {
            for seed in 1..=3u64 {
                let out = run_trial_discrete(
                    &config(utility.clone(), faults.clone()),
                    &source,
                    PolicyKind::qcr_default(),
                    seed,
                );
                assert!(out.metrics.mandates_created > 0, "QCR must be live");
                if f == 1 {
                    assert!(out.metrics.contacts_dropped > 0 && out.metrics.cache_faults > 0);
                }
                assert_eq!(
                    digest(&out.metrics, &out.final_replicas),
                    recorded[u][f][seed as usize - 1],
                    "{name}, faults {f}, seed {seed}: {:#018x}",
                    digest(&out.metrics, &out.final_replicas),
                );
            }
        }
    }
}

#[test]
fn net_kernel_outputs_equal_the_recorded_ones() {
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
    let recorded: [[u64; 2]; 2] = [
        [0x2a83_13fd_59c4_fc42, 0x9292_f43a_cc83_d22d],
        [0x8927_ca9f_b3f9_592b, 0x288e_bb02_e115_fe70],
    ];
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
            let got = digest(
                &out.outcome.metrics,
                &(&out.outcome.final_replicas, out.stats, out.conservation),
            );
            assert_eq!(
                got,
                recorded[f][seed as usize - 1],
                "faults {f}, seed {seed}: {got:#018x}"
            );
        }
    }
}

#[test]
fn net_kernel_paths_equal_the_recorded_ones() {
    let source = ContactSource::homogeneous(12, 0.08, 1_500.0);
    let step = || config(Arc::new(Step::new(10.0)), None);
    let faulty = |faults| config(Arc::new(Step::new(10.0)), Some(faults));
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
    let drops = faulty(FaultConfig {
        seed: 13,
        drop: Some(ContactDrop {
            p: 0.2,
            mean_burst: 2.0,
        }),
        cache: Some(CacheFaults { rate: 0.002 }),
        ..FaultConfig::default()
    });
    let churn = faulty(FaultConfig {
        seed: 17,
        churn: Some(Churn {
            mean_up: 300.0,
            mean_down: 60.0,
        }),
        ..FaultConfig::default()
    });
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
    type Check = fn(&impatience_net::NetTrialOutcome) -> bool;
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
            drops,
            NetConfig::default(),
            |o| o.outcome.metrics.contacts_dropped > 0 && o.outcome.metrics.cache_faults > 0,
        ),
        ("churn", &source, churn, NetConfig::default(), |o| {
            o.stats.crashes > 0
        }),
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
    const RECORDED: [u64; 9] = [
        0x5d96_b4cf_0b97_f93f,
        0x4a39_6004_df55_b7ca,
        0xa637_9e6f_daed_be55,
        0x6b52_c0b5_09ba_fa02,
        0x20d4_2da7_e3ea_21a6,
        0x6961_9238_0ffd_2ae5,
        0x5942_cd3d_c5fd_799e,
        0xa285_fae8_aac7_674d,
        0xc903_4bf1_3141_4398,
    ];
    let moved: Vec<String> = cells
        .iter()
        .zip(RECORDED)
        .filter_map(|((cell, source, config, net, check), recorded)| {
            let out = run_net_trial(config, source, net, 3).expect("the conservation audit passes");
            assert!(check(&out), "{cell}: the path was not taken");
            let got = digest(
                &out.outcome.metrics,
                &(&out.outcome.final_replicas, out.stats, out.conservation),
            );
            (got != recorded).then(|| format!("{cell}: {got:#018x}"))
        })
        .collect();
    assert!(moved.is_empty(), "digests moved:\n{}", moved.join("\n"));
}
