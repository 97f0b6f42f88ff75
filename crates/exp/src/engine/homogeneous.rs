//! Engines for the homogeneous-contact experiment kinds: the Fig. 3/4
//! evaluations, the QCR knob ablation, and the dedicated-population,
//! dynamic-demand, eviction, and degraded-network extensions.

use std::sync::Arc;
use std::time::Instant;

use impatience_core::demand::{DemandProfile, DemandRates};
use impatience_core::solver::greedy::greedy_homogeneous;
use impatience_core::solver::incremental::{Delta, DeltaSolver};
use impatience_core::types::SystemModel;
use impatience_core::utility::DelayUtility;
use impatience_obs::Sink;
use impatience_sim::config::{ContactSource, SimConfig};
use impatience_sim::faults::{Churn, ContactDrop, FaultConfig};
use impatience_sim::policy::{PolicyKind, QcrConfig, Reaction};
use impatience_sim::runner::TrialAggregate;

use super::{accepted, Cell, Kind, Run, Table};
use crate::error::ExpError;
use crate::spec::{
    eviction_rule, family_utility, utility_of, DegradedSpec, DynamicDemandSpec, EvictionSpec,
    LossSweepSpec, MandateRoutingSpec, QcrAblationSpec,
};
use crate::suite::{
    homogeneous_competitors, normalized_losses, paper_homogeneous_setting, pareto_demand,
};

/// `(label, series)` columns of a [`Table::series`], one per aggregate.
fn series_of(
    aggregates: &[TrialAggregate],
    pick: fn(&TrialAggregate) -> &Vec<f64>,
) -> Vec<(&str, &[f64])> {
    aggregates
        .iter()
        .map(|a| (a.label.as_str(), pick(a).as_slice()))
        .collect()
}

/// `agg`'s mean utility against the regime's simulated OPT, in percent.
fn loss_vs(opt: f64, agg: f64) -> f64 {
    100.0 * (agg - opt) / opt.abs()
}

impl LossSweepSpec {
    /// The setting of one utility, and the population its competitors are
    /// solved for. `servers = 0` is the paper's pure-P2P §6.2 setting;
    /// `servers > 0` is the dedicated-population extension (the first
    /// `servers` trace nodes are throwboxes, the rest clients).
    fn setting(&self, utility: Arc<dyn DelayUtility>) -> ((SimConfig, ContactSource), SystemModel) {
        let builder = SimConfig::builder(self.items, self.rho)
            .demand(pareto_demand(self.items))
            .utility(utility)
            .bin(self.bin)
            .warmup_fraction(self.warmup_fraction);
        let source = ContactSource::homogeneous(self.nodes, self.mu, self.duration);
        if self.servers == 0 {
            let system = SystemModel::pure_p2p(self.nodes, self.rho, self.mu);
            ((builder.build(), source), system)
        } else {
            let clients = self.nodes - self.servers;
            let config = builder
                .profile(DemandProfile::uniform(self.items, clients))
                .dedicated_servers(self.servers)
                .build();
            let system = SystemModel::dedicated(clients, self.servers, self.rho, self.mu);
            ((config, source), system)
        }
    }
}

/// Figs. 4 / dedicated extension: normalized loss vs the swept utility
/// parameter. One cell per swept value, one CSV per sweep axis.
impl Kind for LossSweepSpec {
    type What = SystemModel;

    fn outputs(&self) -> Vec<String> {
        self.sweeps.iter().map(|sweep| sweep.file.clone()).collect()
    }

    fn cells(&self, spec: &str) -> Result<Vec<Cell<SystemModel>>, ExpError> {
        let mut cells = Vec::new();
        for sweep in &self.sweeps {
            for &value in &sweep.values {
                let utility = family_utility(spec, &sweep.family, value)?;
                let (setting, system) = self.setting(utility);
                let label = format!("{}={value}", sweep.param);
                let trials = (sweep.seed, self.trials);
                cells.push(Cell::simulated(label, trials, Some(setting), system));
            }
        }
        Ok(cells)
    }

    fn run<S: Sink>(&self, run: &mut Run<'_, '_, S>) -> Result<(), ExpError> {
        let mut cells = self.cells(&run.spec.name)?.into_iter();
        for sweep in &self.sweeps {
            let mut table = Table::sweep(&sweep.param);
            for (&value, cell) in sweep.values.iter().zip(cells.by_ref()) {
                let suite = run.suite(&cell, |config| {
                    homogeneous_competitors(&cell.what, &config.demand, config.utility.as_ref())
                })?;
                table.point(value, &normalized_losses(&run.spec.name, &suite)?);
            }
            let seeds = [sweep.seed];
            run.emit(&sweep.file, &table, &seeds, self.trials)?;
        }
        Ok(())
    }
}

/// What a Fig. 3 cell runs: `policy` over every trial for the utility
/// series, or — with a `panel` — one representative trial whose top-5
/// replica series is that CSV.
pub(super) struct Fig3Run {
    policy: PolicyKind,
    panel: Option<String>,
}

/// Fig. 3: the effect of mandate routing. Expected/observed utility
/// series for QCR, QCR-without-routing, OPT, UNI, DOM, plus top-5 item
/// replica series from one representative trial of each QCR variant.
impl Kind for MandateRoutingSpec {
    type What = Fig3Run;

    fn outputs(&self) -> Vec<String> {
        [
            &self.expected_file,
            &self.observed_file,
            &self.routing_file,
            &self.noroute_file,
        ]
        .map(String::clone)
        .to_vec()
    }

    fn cells(&self, spec: &str) -> Result<Vec<Cell<Fig3Run>>, ExpError> {
        // The paper uses α = 0, `h(t) = −t`.
        let utility = family_utility(spec, "power", self.alpha)?;
        let (config, source, system) = paper_homogeneous_setting(utility.clone(), self.duration);
        accepted(spec, &config, &source)?;
        let qcr = |mandate_routing| {
            PolicyKind::Qcr(QcrConfig {
                mandate_routing,
                ..QcrConfig::default()
            })
        };
        let pinned = homogeneous_competitors(&system, &config.demand, utility.as_ref())
            .into_iter()
            .filter(|p| ["OPT", "UNI", "DOM"].contains(&p.label().as_str()));
        let series = [qcr(true), qcr(false)]
            .into_iter()
            .chain(pinned)
            .map(|policy| (policy.label(), self.trials, policy, None));
        let panels = [(&self.routing_file, true), (&self.noroute_file, false)]
            .map(|(file, routing)| (file.clone(), 1, qcr(routing), Some(file.clone())));
        Ok(series
            .chain(panels)
            .map(|(label, trials, policy, panel)| {
                let setting = Some((config.clone(), source.clone()));
                let what = Fig3Run { policy, panel };
                Cell::simulated(label, (self.seed, trials), setting, what)
            })
            .collect())
    }

    fn run<S: Sink>(&self, run: &mut Run<'_, '_, S>) -> Result<(), ExpError> {
        let (panels, series): (Vec<_>, Vec<_>) = self
            .cells(&run.spec.name)?
            .into_iter()
            .partition(|cell| cell.what.panel.is_some());
        let seeds = [self.seed];

        // Panels (a) and (b): utility series.
        let aggregates = run.policy_cells(&series, |what| &what.policy)?;
        let bin = series[0].campaign().0.bin;
        let expected = Table::series(bin, &series_of(&aggregates, |a| &a.expected_series));
        run.emit(&self.expected_file, &expected, &seeds, self.trials)?;
        let observed = Table::series(bin, &series_of(&aggregates, |a| &a.observed_series));
        run.emit(&self.observed_file, &observed, &seeds, self.trials)?;

        // Panels (c)/(d): top-5 item replica series from a single
        // representative trial of each QCR variant.
        for cell in &panels {
            let started = Instant::now();
            let (config, source, seed) = cell.campaign();
            let out =
                impatience_sim::engine::run_trial(config, source, cell.what.policy.clone(), seed);
            let series: Vec<Vec<u32>> = (0..5).map(|i| out.metrics.replica_series_of(i)).collect();
            let columns: Vec<(&str, &[u32])> = ["msg1", "msg2", "msg3", "msg4", "msg5"]
                .into_iter()
                .zip(&series)
                .map(|(label, series)| (label, series.as_slice()))
                .collect();
            let table = Table::series(config.bin, &columns);
            run.emit(&cell.label, &table, &seeds, cell.trials)?;
            run.cell_done(&cell.label, table.rows.len() as u64, started);
        }
        Ok(())
    }
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

/// A cell that pins one policy in one impatience regime, and the two CSV
/// columns that name it.
pub(super) struct Contender {
    regime: String,
    name: String,
    policy: PolicyKind,
}

impl Contender {
    fn cell(
        self,
        trials: (u64, usize),
        config: &SimConfig,
        source: &ContactSource,
    ) -> Cell<Contender> {
        let label = format!("{}/{}", self.regime, self.name);
        let setting = Some((config.clone(), source.clone()));
        Cell::simulated(label, trials, setting, self)
    }
}

/// QCR ablation: every knob variant (plus the §4.1 hill climber as a
/// local-moves upper reference) against simulated OPT, per regime.
impl Kind for QcrAblationSpec {
    type What = Contender;

    fn outputs(&self) -> Vec<String> {
        vec![self.file.clone()]
    }

    fn cells(&self, spec: &str) -> Result<Vec<Cell<Contender>>, ExpError> {
        let mut cells = Vec::new();
        for (regime, family) in self.regime_labels.iter().zip(&self.regimes) {
            let utility = utility_of(spec, family)?;
            let (config, source, system) =
                paper_homogeneous_setting(utility.clone(), self.duration);
            accepted(spec, &config, &source)?;
            let opt = PolicyKind::Static {
                label: "OPT",
                counts: greedy_homogeneous(&system, &config.demand, utility.as_ref()),
            };
            let variants = qcr_variants()
                .into_iter()
                .map(|(name, cfg)| (name, PolicyKind::Qcr(cfg)));
            let hill = PolicyKind::HillClimb;
            let contenders = std::iter::once(("OPT", opt))
                .chain(variants)
                .chain([("hill-climb", hill)]);
            cells.extend(contenders.map(|(name, policy)| {
                let contender = Contender {
                    regime: regime.clone(),
                    name: name.to_string(),
                    policy,
                };
                contender.cell((self.seed, self.trials), &config, &source)
            }));
        }
        Ok(cells)
    }

    fn run<S: Sink>(&self, run: &mut Run<'_, '_, S>) -> Result<(), ExpError> {
        let cells = self.cells(&run.spec.name)?;
        let mut rows = Vec::new();
        // OPT and every contender share the regime's config, source and
        // seed: one suite call, each a cell of its own.
        for regime in cells.chunks(qcr_variants().len() + 2) {
            let aggregates = run.policy_cells(regime, |c| &c.policy)?;
            let opt = aggregates[0].mean_rate;
            for (cell, agg) in regime.iter().zip(&aggregates).skip(1) {
                let Contender { regime, name, .. } = &cell.what;
                let loss = loss_vs(opt, agg.mean_rate);
                rows.push(format!(
                    "{regime},{name},{},{loss},{}",
                    agg.mean_rate, agg.mean_transmissions
                ));
            }
        }
        let table = Table::new("regime,variant,utility,loss_vs_opt_pct,transmissions", rows);
        run.emit(&self.file, &table, &[self.seed], self.trials)
    }
}

/// Dynamic-demand extension: the popularity ranking reverses at
/// `duration / 2`; QCR adapts, pinned allocations cannot.
impl Kind for DynamicDemandSpec {
    type What = PolicyKind;

    fn outputs(&self) -> Vec<String> {
        vec![self.file.clone()]
    }

    fn cells(&self, spec: &str) -> Result<Vec<Cell<PolicyKind>>, ExpError> {
        let utility = utility_of(spec, &self.utility)?;
        let before = pareto_demand(self.items);
        let after = DemandRates::new(before.rates().iter().rev().copied().collect());
        let config = SimConfig::builder(self.items, self.rho)
            .demand(before.clone())
            .utility(utility.clone())
            .demand_shift(self.duration / 2.0, after.clone())
            .bin(100.0)
            .warmup_fraction(0.0)
            .build();
        let source = ContactSource::homogeneous(self.nodes, self.mu, self.duration);
        accepted(spec, &config, &source)?;

        // One incremental solver carries the allocation across the epoch
        // boundary: its initial solve is OPT for the pre-shift demand, and
        // absorbing the shift as per-item deltas re-solves for the post-shift
        // demand — each bit-identical to a from-scratch greedy solve, at a
        // fraction of the work.
        let system = SystemModel::pure_p2p(self.nodes, self.rho, self.mu);
        let mut resolver = DeltaSolver::new(system, &before, utility);
        let stale = resolver.counts().clone();
        let shift: Vec<Delta> = after
            .rates()
            .iter()
            .enumerate()
            .map(|(item, &rate)| Delta::Demand { item, rate })
            .collect();
        resolver
            .apply(&shift)
            .map_err(|e| ExpError::spec(spec, format!("re-solving the demand shift: {e}")))?;
        let fresh = resolver.counts().clone();

        let pinned = |label, counts| PolicyKind::Static { label, counts };
        let uni = PolicyKind::fixed("uni", &before, self.nodes, self.rho);
        let policies = [
            PolicyKind::qcr_default(),
            pinned("OPT-stale", stale),
            pinned("OPT-fresh", fresh),
        ];
        Ok(policies
            .into_iter()
            .chain(uni)
            .map(|policy| {
                let setting = Some((config.clone(), source.clone()));
                Cell::simulated(policy.label(), (self.seed, self.trials), setting, policy)
            })
            .collect())
    }

    fn run<S: Sink>(&self, run: &mut Run<'_, '_, S>) -> Result<(), ExpError> {
        let cells = self.cells(&run.spec.name)?;
        let aggregates = run.policy_cells(&cells, |policy| policy)?;
        let bin = cells[0].campaign().0.bin;
        let table = Table::series(bin, &series_of(&aggregates, |a| &a.observed_series));
        run.emit(&self.file, &table, &[self.seed], self.trials)
    }
}

/// Eviction ablation: QCR under random/LRU/FIFO replacement vs OPT, per
/// impatience regime. The runs differ in config, so each cell is a
/// campaign of its own.
impl Kind for EvictionSpec {
    type What = Contender;

    fn outputs(&self) -> Vec<String> {
        vec![self.file.clone()]
    }

    fn cells(&self, spec: &str) -> Result<Vec<Cell<Contender>>, ExpError> {
        let trials = (self.seed, self.trials);
        let mut cells = Vec::new();
        for (regime, family) in self.regime_labels.iter().zip(&self.regimes) {
            let utility = utility_of(spec, family)?;
            let (mut config, source, system) =
                paper_homogeneous_setting(utility.clone(), self.duration);
            accepted(spec, &config, &source)?;
            let contender = |name: &str, policy| Contender {
                regime: regime.clone(),
                name: name.to_string(),
                policy,
            };
            let opt = PolicyKind::Static {
                label: "OPT",
                counts: greedy_homogeneous(&system, &config.demand, utility.as_ref()),
            };
            cells.push(contender("OPT", opt).cell(trials, &config, &source));
            for name in &self.rules {
                config.eviction = eviction_rule(spec, name)?;
                let qcr = contender(name, PolicyKind::qcr_default());
                cells.push(qcr.cell(trials, &config, &source));
            }
        }
        Ok(cells)
    }

    fn run<S: Sink>(&self, run: &mut Run<'_, '_, S>) -> Result<(), ExpError> {
        let cells = self.cells(&run.spec.name)?;
        let mut rows = Vec::new();
        for regime in cells.chunks(1 + self.rules.len()) {
            let mut rates = Vec::new();
            for cell in regime {
                let cell = std::slice::from_ref(cell);
                let aggregates = run.policy_cells(cell, |c| &c.policy)?;
                rates.push(aggregates[0].mean_rate);
            }
            for (cell, &rate) in regime.iter().zip(&rates).skip(1) {
                let Contender { regime, name, .. } = &cell.what;
                let loss = loss_vs(rates[0], rate);
                rows.push(format!("{regime},{name},{rate},{loss}"));
            }
        }
        let table = Table::new("regime,eviction,utility,loss_vs_opt_pct", rows);
        run.emit(&self.file, &table, &[self.seed], self.trials)
    }
}

/// Degraded-network experiment: QCR/OPT/UNI mean observed utility under
/// bursty contact drops, then under exponential server churn over a
/// fixed mean cycle. One cell per swept value, one CSV per fault axis.
impl Kind for DegradedSpec {
    type What = SystemModel;

    fn outputs(&self) -> Vec<String> {
        vec![self.drop.file.clone(), self.churn.file.clone()]
    }

    fn cells(&self, spec: &str) -> Result<Vec<Cell<SystemModel>>, ExpError> {
        let utility = utility_of(spec, &self.utility)?;
        let drop = |p: f64| FaultConfig {
            seed: self.drop.fault_seed,
            drop: Some(ContactDrop {
                p,
                mean_burst: self.drop_mean_burst,
            }),
            ..FaultConfig::default()
        };
        let churn = |down: f64| FaultConfig {
            seed: self.churn.fault_seed,
            churn: Some(Churn {
                mean_up: self.churn_cycle * (1.0 - down),
                mean_down: self.churn_cycle * down,
            }),
            ..FaultConfig::default()
        };
        let axes: [(_, &dyn Fn(f64) -> FaultConfig); 2] =
            [(&self.drop, &drop), (&self.churn, &churn)];
        let mut cells = Vec::new();
        for (axis, fault) in axes {
            for &value in &axis.values {
                let (mut config, source, system) =
                    paper_homogeneous_setting(utility.clone(), self.duration);
                config.faults = (value > 0.0).then(|| fault(value));
                let label = format!("{}={value}", axis.param);
                let trials = (self.seed, self.trials);
                cells.push(Cell::simulated(
                    label,
                    trials,
                    Some((config, source)),
                    system,
                ));
            }
        }
        Ok(cells)
    }

    fn run<S: Sink>(&self, run: &mut Run<'_, '_, S>) -> Result<(), ExpError> {
        let mut cells = self.cells(&run.spec.name)?.into_iter();
        for axis in [&self.drop, &self.churn] {
            let mut table = Table::sweep(&axis.param);
            for (&value, cell) in axis.values.iter().zip(cells.by_ref()) {
                // Only the lanes the tables report: QCR, OPT, UNI.
                let suite = run.suite(&cell, |config| {
                    homogeneous_competitors(&cell.what, &config.demand, config.utility.as_ref())
                        .into_iter()
                        .filter(|p| ["OPT", "UNI"].contains(&p.label().as_str()))
                        .collect()
                })?;
                let rates: Vec<(String, f64)> = suite
                    .into_iter()
                    .map(|(label, agg)| (label, agg.mean_rate))
                    .collect();
                table.point(value, &rates);
            }
            run.emit(&axis.file, &table, &[self.seed], self.trials)?;
        }
        Ok(())
    }
}
