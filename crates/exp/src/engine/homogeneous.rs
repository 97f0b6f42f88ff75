//! Engines for the homogeneous-contact experiment kinds: the Fig. 3/4
//! evaluations, the QCR knob ablation, and the dedicated-population,
//! dynamic-demand, eviction, and degraded-network extensions.

use std::sync::Arc;
use std::time::Instant;

use impatience_core::demand::{DemandProfile, DemandRates};
use impatience_core::solver::fixed::uniform;
use impatience_core::solver::greedy::greedy_homogeneous;
use impatience_core::solver::incremental::{Delta, DeltaSolver};
use impatience_core::types::SystemModel;
use impatience_core::utility::{DelayUtility, Power};
use impatience_obs::Sink;
use impatience_sim::config::{ContactSource, SimConfig};
use impatience_sim::faults::{Churn, ContactDrop, FaultConfig};
use impatience_sim::policy::{PolicyKind, QcrConfig, Reaction};
use impatience_sim::state::EvictionPolicy;

use super::{emit, ExecContext, ExecReport};
use crate::error::ExpError;
use crate::spec::{
    family_utility, utility_of, DegradedSpec, DynamicDemandSpec, EvictionSpec, LossSweepSpec,
    MandateRoutingSpec, QcrAblationSpec, Spec,
};
use crate::suite::{
    homogeneous_competitors, loss_header, loss_row, normalized_losses, paper_homogeneous_setting,
    pareto_demand,
};

/// Build the (config, source, system) triple of a [`LossSweepSpec`]
/// setting for one utility. `servers = 0` is the paper's pure-P2P §6.2
/// setting; `servers > 0` is the dedicated-population extension (the
/// first `servers` trace nodes are throwboxes, the rest clients).
pub(super) fn sweep_setting(
    s: &LossSweepSpec,
    utility: Arc<dyn DelayUtility>,
) -> (SimConfig, ContactSource, SystemModel) {
    if s.servers == 0 {
        let system = SystemModel::pure_p2p(s.nodes, s.rho, s.mu);
        let config = SimConfig::builder(s.items, s.rho)
            .demand(pareto_demand(s.items))
            .utility(utility)
            .bin(s.bin)
            .warmup_fraction(s.warmup_fraction)
            .build();
        let source = ContactSource::homogeneous(s.nodes, s.mu, s.duration);
        (config, source, system)
    } else {
        let clients = s.nodes - s.servers;
        let system = SystemModel::dedicated(clients, s.servers, s.rho, s.mu);
        let config = SimConfig::builder(s.items, s.rho)
            .demand(pareto_demand(s.items))
            .profile(DemandProfile::uniform(s.items, clients))
            .utility(utility)
            .dedicated_servers(s.servers)
            .bin(s.bin)
            .warmup_fraction(s.warmup_fraction)
            .build();
        let source = ContactSource::homogeneous(s.nodes, s.mu, s.duration);
        (config, source, system)
    }
}

/// Figs. 4 / dedicated extension: normalized loss vs the swept utility
/// parameter, one CSV per sweep axis.
pub fn loss_sweep<S: Sink>(
    spec: &Spec,
    s: &LossSweepSpec,
    ctx: &mut ExecContext<'_, S>,
    report: &mut ExecReport,
) -> Result<(), ExpError> {
    for sweep in &s.sweeps {
        let mut rows = Vec::new();
        let mut header = String::new();
        for &value in &sweep.values {
            let cell = format!("{}={value}", sweep.param);
            let started = Instant::now();
            let utility = family_utility(&spec.name, &sweep.family, value)?;
            let (config, source, system) = sweep_setting(s, utility.clone());
            let competitors = homogeneous_competitors(&system, &config.demand, utility.as_ref());
            let suite = ctx.policy_suite(
                spec,
                &cell,
                &config,
                &source,
                competitors,
                s.trials,
                sweep.seed,
                report,
            )?;
            let losses = normalized_losses(&suite);
            if header.is_empty() {
                header = loss_header(&sweep.param, &losses);
            }
            rows.push(loss_row(value, &losses));
            ctx.cell_done(spec, &cell, suite.len() as u64, started, report);
        }
        emit(
            spec,
            ctx,
            report,
            &sweep.file,
            &header,
            &rows,
            &[sweep.seed],
            s.trials,
        )?;
    }
    Ok(())
}

/// Fig. 3: the effect of mandate routing. Expected/observed utility
/// series for QCR, QCR-without-routing, OPT, UNI, DOM, plus top-5 item
/// replica series from one representative trial of each QCR variant.
pub fn mandate_routing<S: Sink>(
    spec: &Spec,
    s: &MandateRoutingSpec,
    ctx: &mut ExecContext<'_, S>,
    report: &mut ExecReport,
) -> Result<(), ExpError> {
    let utility: Arc<dyn DelayUtility> = Arc::new(Power::new(s.alpha));
    let (config, source, system) = paper_homogeneous_setting(utility.clone(), s.duration);

    let competitors = homogeneous_competitors(&system, &config.demand, utility.as_ref());
    let mut policies: Vec<PolicyKind> = vec![
        PolicyKind::qcr_default(),
        PolicyKind::Qcr(QcrConfig {
            mandate_routing: false,
            ..QcrConfig::default()
        }),
    ];
    policies.extend(
        competitors
            .into_iter()
            .filter(|p| ["OPT", "UNI", "DOM"].contains(&p.label().as_str())),
    );

    let cells: Vec<_> = policies.into_iter().map(|p| (p.label(), p)).collect();
    let aggregates = ctx.policy_cells(spec, &cells, &config, &source, s.trials, s.seed, report)?;

    // Panels (a) and (b): utility series.
    let bins = aggregates[0].expected_series.len();
    let mut expected_rows = Vec::new();
    let mut observed_rows = Vec::new();
    for b in 0..bins {
        let t = b as f64 * config.bin;
        let mut er = format!("{t}");
        let mut or = format!("{t}");
        for agg in &aggregates {
            er.push_str(&format!(",{}", agg.expected_series[b]));
            or.push_str(&format!(",{}", agg.observed_series[b]));
        }
        expected_rows.push(er);
        observed_rows.push(or);
    }
    let header = {
        let mut h = "time".to_string();
        for agg in &aggregates {
            h.push_str(&format!(",{}", agg.label));
        }
        h
    };
    emit(
        spec,
        ctx,
        report,
        &s.expected_file,
        &header,
        &expected_rows,
        &[s.seed],
        s.trials,
    )?;
    emit(
        spec,
        ctx,
        report,
        &s.observed_file,
        &header,
        &observed_rows,
        &[s.seed],
        s.trials,
    )?;

    // Panels (c)/(d): top-5 item replica series from a single
    // representative trial of each QCR variant.
    for (name, routing) in [(&s.routing_file, true), (&s.noroute_file, false)] {
        let started = Instant::now();
        let policy = PolicyKind::Qcr(QcrConfig {
            mandate_routing: routing,
            ..QcrConfig::default()
        });
        let out = impatience_sim::engine::run_trial(&config, &source, policy, s.seed);
        let mut rows = Vec::new();
        let series: Vec<Vec<u32>> = (0..5).map(|i| out.metrics.replica_series_of(i)).collect();
        for b in 0..series[0].len() {
            let t = b as f64 * config.bin;
            let mut row = format!("{t}");
            for sr in &series {
                row.push_str(&format!(",{}", sr[b]));
            }
            rows.push(row);
        }
        emit(
            spec,
            ctx,
            report,
            name,
            "time,msg1,msg2,msg3,msg4,msg5",
            &rows,
            &[s.seed],
            1,
        )?;
        ctx.cell_done(spec, name, rows.len() as u64, started, report);
    }
    Ok(())
}

/// The QCR knob variants DESIGN.md calls out, in the ablation's fixed
/// reporting order.
fn qcr_variants() -> Vec<(&'static str, QcrConfig)> {
    vec![
        ("default", QcrConfig::default()),
        (
            "no-routing",
            QcrConfig {
                mandate_routing: false,
                ..QcrConfig::default()
            },
        ),
        (
            "rewriting",
            QcrConfig {
                rewriting: true,
                ..QcrConfig::default()
            },
        ),
        (
            "cap-5",
            QcrConfig {
                mandate_cap: 5,
                ..QcrConfig::default()
            },
        ),
        (
            "uncapped",
            QcrConfig {
                mandate_cap: u64::MAX,
                ..QcrConfig::default()
            },
        ),
        (
            "raw-psi",
            QcrConfig {
                normalize_reaction: false,
                ..QcrConfig::default()
            },
        ),
        (
            "passive-1",
            QcrConfig {
                reaction: Reaction::Constant(1.0),
                ..QcrConfig::default()
            },
        ),
    ]
}

/// QCR ablation: every knob variant (plus the §4.1 hill climber as a
/// local-moves upper reference) against simulated OPT, per regime.
pub fn qcr_ablation<S: Sink>(
    spec: &Spec,
    s: &QcrAblationSpec,
    ctx: &mut ExecContext<'_, S>,
    report: &mut ExecReport,
) -> Result<(), ExpError> {
    let mut rows = Vec::new();
    for (regime, family) in s.regime_labels.iter().zip(&s.regimes) {
        let utility = utility_of(&spec.name, family)?;
        let (config, source, system) = paper_homogeneous_setting(utility.clone(), s.duration);
        // OPT and every contender share the regime's config, source and
        // seed: one suite call, each a cell of its own.
        let mut contenders = vec![(
            "OPT",
            PolicyKind::Static {
                label: "OPT",
                counts: greedy_homogeneous(&system, &config.demand, utility.as_ref()),
            },
        )];
        contenders.extend(
            qcr_variants()
                .into_iter()
                .map(|(name, cfg)| (name, PolicyKind::Qcr(cfg))),
        );
        contenders.push((
            "hill-climb",
            PolicyKind::HillClimb {
                moves_per_contact: 1,
            },
        ));
        let names: Vec<&str> = contenders.iter().map(|&(name, _)| name).collect();
        let cells: Vec<_> = contenders
            .into_iter()
            .map(|(name, policy)| (format!("{regime}/{name}"), policy))
            .collect();
        let aggregates =
            ctx.policy_cells(spec, &cells, &config, &source, s.trials, s.seed, report)?;
        let opt = &aggregates[0];
        for (name, agg) in names.iter().zip(&aggregates).skip(1) {
            let loss = 100.0 * (agg.mean_rate - opt.mean_rate) / opt.mean_rate.abs();
            rows.push(format!(
                "{regime},{name},{},{loss},{}",
                agg.mean_rate, agg.mean_transmissions
            ));
        }
    }
    emit(
        spec,
        ctx,
        report,
        &s.file,
        "regime,variant,utility,loss_vs_opt_pct,transmissions",
        &rows,
        &[s.seed],
        s.trials,
    )?;
    Ok(())
}

/// Dynamic-demand extension: the popularity ranking reverses at
/// `duration / 2`; QCR adapts, pinned allocations cannot.
pub fn dynamic_demand<S: Sink>(
    spec: &Spec,
    s: &DynamicDemandSpec,
    ctx: &mut ExecContext<'_, S>,
    report: &mut ExecReport,
) -> Result<(), ExpError> {
    let utility = utility_of(&spec.name, &s.utility)?;
    let before = pareto_demand(s.items);
    let after = DemandRates::new(before.rates().iter().rev().copied().collect());

    let config = SimConfig::builder(s.items, s.rho)
        .demand(before.clone())
        .utility(utility.clone())
        .demand_shift(s.duration / 2.0, after.clone())
        .bin(100.0)
        .warmup_fraction(0.0)
        .build();
    let source = ContactSource::homogeneous(s.nodes, s.mu, s.duration);
    let system = SystemModel::pure_p2p(s.nodes, s.rho, s.mu);

    // One incremental solver carries the allocation across the epoch
    // boundary: its initial solve is OPT for the pre-shift demand, and
    // absorbing the shift as per-item deltas re-solves for the post-shift
    // demand — each bit-identical to a from-scratch greedy solve, at a
    // fraction of the work.
    let mut resolver = DeltaSolver::new(system, &before, utility.clone());
    let stale_counts = resolver.counts().clone();
    let shift: Vec<Delta> = after
        .rates()
        .iter()
        .enumerate()
        .map(|(item, &rate)| Delta::Demand { item, rate })
        .collect();
    resolver
        .apply(&shift)
        .map_err(|e| ExpError::spec(&spec.name, format!("re-solving the demand shift: {e}")))?;
    let fresh_counts = resolver.counts().clone();

    let policies = vec![
        PolicyKind::qcr_default(),
        PolicyKind::Static {
            label: "OPT-stale",
            counts: stale_counts,
        },
        PolicyKind::Static {
            label: "OPT-fresh",
            counts: fresh_counts,
        },
        PolicyKind::Static {
            label: "UNI",
            counts: uniform(s.items, s.nodes, s.rho),
        },
    ];

    let cells: Vec<_> = policies.into_iter().map(|p| (p.label(), p)).collect();
    let aggregates = ctx.policy_cells(spec, &cells, &config, &source, s.trials, s.seed, report)?;

    let mut header = "time".to_string();
    for a in &aggregates {
        header.push_str(&format!(",{}", a.label));
    }
    let mut rows = Vec::new();
    for b in 0..aggregates[0].observed_series.len() {
        let mut row = format!("{}", b as f64 * config.bin);
        for a in &aggregates {
            row.push_str(&format!(",{}", a.observed_series[b]));
        }
        rows.push(row);
    }
    emit(
        spec,
        ctx,
        report,
        &s.file,
        &header,
        &rows,
        &[s.seed],
        s.trials,
    )?;
    Ok(())
}

/// Eviction ablation: QCR under random/LRU/FIFO replacement vs OPT, per
/// impatience regime.
pub fn eviction<S: Sink>(
    spec: &Spec,
    s: &EvictionSpec,
    ctx: &mut ExecContext<'_, S>,
    report: &mut ExecReport,
) -> Result<(), ExpError> {
    let mut rows = Vec::new();
    for (regime, family) in s.regime_labels.iter().zip(&s.regimes) {
        let utility = utility_of(&spec.name, family)?;
        let (base_config, source, system) = paper_homogeneous_setting(utility.clone(), s.duration);
        let opt_counts = greedy_homogeneous(&system, &base_config.demand, utility.as_ref());
        let opt_cell = format!("{regime}/OPT");
        let started = Instant::now();
        let opt = ctx.run_one(
            spec,
            &opt_cell,
            &base_config,
            &source,
            &PolicyKind::Static {
                label: "OPT",
                counts: opt_counts,
            },
            s.trials,
            s.seed,
            report,
        )?;
        ctx.cell_done(spec, &opt_cell, 1, started, report);
        for name in &s.rules {
            let rule = match name.as_str() {
                "random" => EvictionPolicy::Random,
                "lru" => EvictionPolicy::Lru,
                "fifo" => EvictionPolicy::Fifo,
                other => {
                    return Err(ExpError::spec(
                        &spec.name,
                        format!("unknown eviction rule `{other}`"),
                    ))
                }
            };
            let mut config = base_config.clone();
            config.eviction = rule;
            let cell = format!("{regime}/{name}");
            let started = Instant::now();
            let agg = ctx.run_one(
                spec,
                &cell,
                &config,
                &source,
                &PolicyKind::qcr_default(),
                s.trials,
                s.seed,
                report,
            )?;
            let loss = 100.0 * (agg.mean_rate - opt.mean_rate) / opt.mean_rate.abs();
            rows.push(format!("{regime},{name},{},{loss}", agg.mean_rate));
            ctx.cell_done(spec, &cell, 1, started, report);
        }
    }
    emit(
        spec,
        ctx,
        report,
        &s.file,
        "regime,eviction,utility,loss_vs_opt_pct",
        &rows,
        &[s.seed],
        s.trials,
    )?;
    Ok(())
}

/// Degraded-network experiment: QCR/OPT/UNI mean observed utility under
/// bursty contact drops and exponential server churn.
pub fn degraded<S: Sink>(
    spec: &Spec,
    s: &DegradedSpec,
    ctx: &mut ExecContext<'_, S>,
    report: &mut ExecReport,
) -> Result<(), ExpError> {
    let utility = utility_of(&spec.name, &s.utility)?;

    let run_point = |ctx: &mut ExecContext<'_, S>,
                     report: &mut ExecReport,
                     cell: &str,
                     faults: Option<FaultConfig>|
     -> Result<Vec<(String, f64)>, ExpError> {
        let (config, source, system) = paper_homogeneous_setting(utility.clone(), s.duration);
        let config = match faults {
            Some(fc) => {
                let mut c = config;
                c.faults = Some(fc);
                c
            }
            None => config,
        };
        // Only the lanes the tables report: QCR, OPT, UNI.
        let competitors = homogeneous_competitors(&system, &config.demand, utility.as_ref())
            .into_iter()
            .filter(|p| ["OPT", "UNI"].contains(&p.label().as_str()))
            .collect();
        let suite = ctx.policy_suite(
            spec,
            cell,
            &config,
            &source,
            competitors,
            s.trials,
            s.seed,
            report,
        )?;
        Ok(suite
            .into_iter()
            .map(|(label, agg)| (label, agg.mean_rate))
            .collect())
    };

    let header_for = |points: &[(String, f64)], param: &str| {
        let mut h = param.to_string();
        for (label, _) in points {
            h.push_str(&format!(",{label}"));
        }
        h
    };
    let row_for = |param: f64, points: &[(String, f64)]| {
        let mut row = format!("{param}");
        for (_, u) in points {
            row.push_str(&format!(",{u}"));
        }
        row
    };

    // Sweep 1: bursty contact loss.
    let mut rows = Vec::new();
    let mut header = String::new();
    for &p in &s.drop.values {
        let cell = format!("{}={p}", s.drop.param);
        let started = Instant::now();
        let faults = (p > 0.0).then(|| FaultConfig {
            seed: s.drop.fault_seed,
            drop: Some(ContactDrop {
                p,
                mean_burst: s.drop_mean_burst,
            }),
            ..FaultConfig::default()
        });
        let points = run_point(ctx, report, &cell, faults)?;
        if header.is_empty() {
            header = header_for(&points, &s.drop.param);
        }
        rows.push(row_for(p, &points));
        ctx.cell_done(spec, &cell, points.len() as u64, started, report);
    }
    emit(
        spec,
        ctx,
        report,
        &s.drop.file,
        &header,
        &rows,
        &[s.seed],
        s.trials,
    )?;

    // Sweep 2: exponential server churn over a fixed mean cycle.
    let mut rows = Vec::new();
    let mut header = String::new();
    for &f in &s.churn.values {
        let cell = format!("{}={f}", s.churn.param);
        let started = Instant::now();
        let faults = (f > 0.0).then(|| FaultConfig {
            seed: s.churn.fault_seed,
            churn: Some(Churn {
                mean_up: s.churn_cycle * (1.0 - f),
                mean_down: s.churn_cycle * f,
            }),
            ..FaultConfig::default()
        });
        let points = run_point(ctx, report, &cell, faults)?;
        if header.is_empty() {
            header = header_for(&points, &s.churn.param);
        }
        rows.push(row_for(f, &points));
        ctx.cell_done(spec, &cell, points.len() as u64, started, report);
    }
    emit(
        spec,
        ctx,
        report,
        &s.churn.file,
        &header,
        &rows,
        &[s.seed],
        s.trials,
    )?;
    Ok(())
}
