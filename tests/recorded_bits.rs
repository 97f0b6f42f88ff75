//! Same bits as before, for the two runtimes nothing else pins: the
//! serial engine answers to `reproduce --check` and the sharded engine
//! to the digests in `sharded_engine.rs`; the discrete engine and the
//! message-passing kernel answer to the constants below.
//!
//! Every constant was recorded at commit 0c7b659 (the parent of the
//! change that put one `QcrRules` and one `Trial` frame under all four
//! runtimes) by running this file there: a cell whose digest moves has
//! changed a float sum, an RNG draw or an event order.

use std::sync::Arc;

use impatience_core::demand::Popularity;
use impatience_core::utility::{DelayUtility, Power, Step};
use impatience_net::{run_net_trial, NetConfig};
use impatience_sim::config::{ContactSource, SimConfig};
use impatience_sim::engine_discrete::{run_trial_discrete, DiscreteSource};
use impatience_sim::faults::{CacheFaults, ContactDrop, FaultConfig, MsgFaults};
use impatience_sim::metrics::Metrics;
use impatience_sim::policy::PolicyKind;

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
                &out.metrics,
                &(&out.final_replicas, out.stats, out.conservation),
            );
            assert_eq!(
                got,
                recorded[f][seed as usize - 1],
                "faults {f}, seed {seed}: {got:#018x}"
            );
        }
    }
}
