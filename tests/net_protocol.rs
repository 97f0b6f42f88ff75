//! Contracts of the distributed QCR runtime's message layer: the wire
//! codec round-trips every frame and rejects truncation/corruption with
//! typed errors, alike whether it decodes into fresh or reused buffers,
//! and writes an advert from borrowed lists as `Msg::encode` does; the
//! message-fault family is inert on the in-process engine (bit-identical
//! trajectories with or without it attached); the distributed batch is
//! deterministic per seed and independent of the worker count; message
//! loss degrades welfare boundedly instead of wedging; paired seeds share
//! exactly the contacts the two runtimes see; and the clean-transport
//! runtime statistically matches the engine under the oracle's
//! paired-seed differential.

use std::sync::Arc;

use impatience_core::demand::Popularity;
use impatience_core::utility::Step;
use impatience_net::wire::{decode_into, encode_advert, Lists};
use impatience_net::{run_net_trials_observed, Msg, NetConfig, WireError};
use impatience_obs::{Event, MemorySink, Recorder};
use impatience_oracle::net_vs_engine;
use impatience_sim::config::{ContactSource, SimConfig};
use impatience_sim::engine::{run_trial, run_trial_observed};
use impatience_sim::faults::{ContactDrop, FaultConfig, MsgFaults};
use impatience_sim::policy::PolicyKind;
use proptest::prelude::*;

fn small_config(items: usize, rho: usize) -> SimConfig {
    SimConfig::builder(items, rho)
        .demand(Popularity::pareto(items, 1.0).demand_rates(0.5))
        .utility(Arc::new(Step::new(10.0)))
        .bin(100.0)
        .build()
}

fn with_msg_faults(mut config: SimConfig, msg: MsgFaults) -> SimConfig {
    config.faults = Some(FaultConfig {
        seed: 5,
        msg: Some(msg),
        ..FaultConfig::default()
    });
    config
}

// ---------------------------------------------------------------- codec

fn arb_u32s(max_len: usize) -> impl Strategy<Value = Vec<u32>> {
    proptest::collection::vec(0u32..1_000_000, 0..max_len)
}

fn arb_msg() -> impl Strategy<Value = Msg> {
    prop_oneof![
        (
            0u64..u64::MAX,
            arb_u32s(24),
            proptest::collection::vec((0u32..1_000_000, 0u64..1_000_000_000), 0..24),
        )
            .prop_map(|(window, items, mandates)| Msg::CacheAdvert {
                window,
                items,
                mandates,
            }),
        (0u64..u64::MAX, arb_u32s(24)).prop_map(|(window, wants)| Msg::Request { window, wants }),
        (0u64..u64::MAX, arb_u32s(24)).prop_map(|(window, grants)| Msg::Fulfill { window, grants }),
        (
            0u64..u64::MAX,
            0u32..1_000_000,
            0u64..1_000_000_000,
            0u32..2
        )
            .prop_map(|(xfer, item, count, execute)| Msg::MandateHandoff {
                xfer,
                item,
                count,
                execute: execute == 1,
            }),
        (0u64..u64::MAX, 0u64..1_000_000_000)
            .prop_map(|(xfer, consumed)| Msg::MandateAck { xfer, consumed }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn codec_round_trips_every_frame(msg in arb_msg()) {
        let bytes = msg.encode();
        prop_assert_eq!(Msg::decode(&bytes).unwrap(), msg);
    }

    #[test]
    fn truncated_frames_fail_typed(msg in arb_msg(), cut in 0usize..64) {
        let bytes = msg.encode();
        let cut = cut % bytes.len();
        // Every prefix fails with a typed [`WireError`] — truncation,
        // bad magic, checksum mismatch — never a panic or a bogus frame.
        let decoded: Result<Msg, WireError> = Msg::decode(&bytes[..cut]);
        prop_assert!(decoded.is_err());
    }

    #[test]
    fn corrupted_frames_fail_typed(msg in arb_msg(), pos in 0usize..4096, bit in 0u32..8) {
        let mut bytes = msg.encode();
        let len = bytes.len();
        bytes[pos % len] ^= 1u8 << bit;
        // Any single-bit flip breaks the magic, the kind, the payload
        // checksum, or a length prefix — never yields a clean decode of
        // a *different* frame, and never panics.
        if let Ok(decoded) = Msg::decode(&bytes) {
            prop_assert_eq!(decoded, msg);
        }
    }
}

// ------------------------------------------------- codec, buffers reused

/// Lists a longer advert than any `arb_msg` makes was decoded into, as
/// the kernel's are after a busy run.
fn used_lists() -> Lists {
    let longer = Msg::CacheAdvert {
        window: 1,
        items: (0..40).rev().collect(),
        mandates: (0..40).map(|i| (i, u64::from(i) + 1)).collect(),
    };
    let mut lists = Lists::default();
    decode_into(&longer.encode(), &mut lists).expect("an encoded advert decodes");
    lists
}

/// [`decode_into`] on [`used_lists`], as the message it carries.
fn decode_reusing(bytes: &[u8]) -> Result<Msg, WireError> {
    let mut lists = used_lists();
    decode_into(bytes, &mut lists).map(|head| head.into_msg(lists))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn decoding_into_used_lists_gives_what_msg_decode_gives(msg in arb_msg()) {
        let bytes = msg.encode();
        prop_assert_eq!(decode_reusing(&bytes), Msg::decode(&bytes));
    }

    #[test]
    fn broken_frames_fail_alike_on_both_decode_paths(
        msg in arb_msg(),
        cut in 0usize..64,
        pos in 0usize..4096,
        bit in 0u32..8,
    ) {
        let mut bytes = msg.encode();
        let cut = cut % bytes.len();
        prop_assert_eq!(decode_reusing(&bytes[..cut]), Msg::decode(&bytes[..cut]));
        let len = bytes.len();
        bytes[pos % len] ^= 1u8 << bit;
        prop_assert_eq!(decode_reusing(&bytes), Msg::decode(&bytes));
    }

    #[test]
    fn an_advert_written_from_borrowed_lists_is_msg_encode(msg in arb_msg()) {
        if let Msg::CacheAdvert { window, items, mandates } = &msg {
            let mut buf = vec![0xFF; 40];
            encode_advert(&mut buf, *window, items, mandates.iter().copied());
            prop_assert_eq!(buf, msg.encode());
        }
    }
}

// --------------------------------------------- engine-inert fault family

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    // The message-fault family is consumed only by the net transport:
    // attaching an *active* config to the in-process engine must leave
    // its trajectory bit-for-bit unchanged.
    #[test]
    fn msg_faults_are_inert_on_the_engine(
        seed in 0u64..500,
        loss in 0.01f64..0.9,
        dup in 0.0f64..0.5,
        reorder in 0u32..8,
    ) {
        let clean = small_config(8, 2);
        let faulty = with_msg_faults(
            small_config(8, 2),
            MsgFaults { loss_p: loss, dup_p: dup, reorder_window: reorder },
        );
        let source = ContactSource::homogeneous(10, 0.08, 600.0);
        let a = run_trial(&clean, &source, PolicyKind::qcr_default(), seed);
        let b = run_trial(&faulty, &source, PolicyKind::qcr_default(), seed);
        prop_assert_eq!(a.final_replicas, b.final_replicas);
        prop_assert_eq!(
            a.metrics.observed_rate_series(),
            b.metrics.observed_rate_series()
        );
    }
}

// ------------------------------------------------- batch determinism

fn batch(config: &SimConfig, source: &ContactSource, workers: usize) -> (Vec<f64>, String) {
    let agg = run_net_trials_observed(
        config,
        source,
        &NetConfig::default(),
        6,
        42,
        Some(workers),
        &mut Recorder::disabled(),
    )
    .expect("batch must conserve");
    let stats = format!("{:?} {:?}", agg.stats, agg.conservation);
    (agg.aggregate.rates, stats)
}

#[test]
fn net_batches_are_worker_count_independent() {
    let config = with_msg_faults(
        small_config(10, 2),
        MsgFaults {
            loss_p: 0.08,
            dup_p: 0.02,
            reorder_window: 3,
        },
    );
    let source = ContactSource::homogeneous(12, 0.08, 1_000.0);
    let one = batch(&config, &source, 1);
    assert_eq!(one, batch(&config, &source, 2), "2 workers diverged");
    assert_eq!(one, batch(&config, &source, 8), "8 workers diverged");
}

// ------------------------------------------------------- bounded loss

#[test]
fn loss_degrades_welfare_boundedly() {
    let source = ContactSource::homogeneous(12, 0.08, 1_500.0);
    let clean = batch(&small_config(10, 2), &source, 2).0;
    let lossy = batch(
        &with_msg_faults(
            small_config(10, 2),
            MsgFaults {
                loss_p: 0.10,
                dup_p: 0.02,
                reorder_window: 3,
            },
        ),
        &source,
        2,
    )
    .0;
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    let (c, l) = (mean(&clean), mean(&lossy));
    assert!(c > 0.0, "clean batch should fulfill");
    assert!(
        l > 0.5 * c,
        "10% loss should be mostly masked by retries, got {l} vs clean {c}"
    );
}

// ------------------------------------------ what paired seeds share

/// The `contact` events of a recording, in order (times as bits).
fn contact_events(events: &[Event]) -> Vec<(u64, u32, u32)> {
    events
        .iter()
        .filter_map(|e| match *e {
            Event::Contact { t, a, b } => Some((t.to_bits(), a, b)),
            _ => None,
        })
        .collect()
}

#[test]
fn paired_seeds_share_the_contacts_each_runtime_sees() {
    // The kernel begins a trial with the engine's seeding: the same
    // contact stream, and the same fault streams dropping from it. (The
    // demand is shared only up to the first arrival time; see
    // `impatience_oracle::netdiff`.)
    let source = ContactSource::homogeneous(12, 0.08, 1_000.0);
    let mut dropping = small_config(10, 2);
    dropping.faults = Some(FaultConfig {
        seed: 13,
        drop: Some(ContactDrop {
            p: 0.2,
            mean_burst: 2.0,
        }),
        ..FaultConfig::default()
    });
    let mut seen = Vec::new();
    for config in [small_config(10, 2), dropping] {
        let mut net = Recorder::new(MemorySink::new());
        let agg = run_net_trials_observed(
            &config,
            &source,
            &NetConfig::default(),
            1,
            7,
            None,
            &mut net,
        )
        .expect("the audit passes");
        assert!(agg.aggregate.trials == 1 && agg.conservation.holds());
        let mut engine = Recorder::new(MemorySink::new());
        let qcr = run_trial_observed(&config, &source, PolicyKind::qcr_default(), 7, &mut engine);
        let contacts = contact_events(&engine.sink().events);
        assert!(!contacts.is_empty());
        assert_eq!(contact_events(&net.sink().events), contacts);
        seen.push((contacts.len(), qcr.metrics.contacts_dropped));
    }
    let [(clean, 0), (dropped, lost)] = seen[..] else {
        panic!("contact drops on a clean config: {seen:?}");
    };
    assert!(lost > 0 && dropped + lost as usize == clean, "{seen:?}");
}

// ----------------------------------------------- differential agreement

#[test]
fn clean_transport_matches_engine_within_clt_budget() {
    let config = SimConfig::builder(10, 2)
        .demand(Popularity::pareto(10, 1.0).demand_rates(1.0))
        .utility(Arc::new(Step::new(10.0)))
        .bin(60.0)
        .warmup_fraction(0.25)
        .build();
    let source = ContactSource::homogeneous(12, 0.1, 1_200.0);
    let cmp = net_vs_engine(&config, &source, 5, 42).expect("differential batch must conserve");
    assert!(
        cmp.agrees(),
        "distributed QCR diverged from the engine: {}",
        cmp.describe()
    );
}
