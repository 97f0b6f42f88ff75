//! Engine for the generated-trace suites (Figs. 5–6): conference and
//! vehicular scenarios, optionally re-run on the memoryless resynthesis.

use impatience_core::demand::DemandProfile;
use impatience_core::rng::Xoshiro256;
use impatience_obs::Sink;
use impatience_sim::config::{ContactSource, SimConfig};
use impatience_traces::gen::{ConferenceConfig, VehicularConfig};
use impatience_traces::{resynthesize_memoryless, ContactTrace, TraceStats};

use super::{Cell, Kind, Run, Table};
use crate::error::ExpError;
use crate::spec::{family_utility, utility_of, TraceKind, TraceSuiteSpec};
use crate::suite::{normalized_losses, pareto_demand, trace_competitors};

/// A generated trace as the cells replay it, with the rate estimates OPT
/// is solved on.
struct Replay {
    source: ContactSource,
    stats: TraceStats,
}

impl Replay {
    fn of(trace: ContactTrace) -> Replay {
        Replay {
            stats: TraceStats::from_trace(&trace),
            source: ContactSource::trace(trace),
        }
    }
}

/// The suite's trace, and its memoryless resynthesis when a sweep runs on
/// it — whose generation *continues* the trace RNG, as Fig. 5 requires.
struct Traces {
    actual: Replay,
    synthesized: Option<Replay>,
}

impl Traces {
    /// The trace a sweep replays.
    fn replay(&self, synthesized: bool) -> &Replay {
        match &self.synthesized {
            Some(replay) if synthesized => replay,
            _ => &self.actual,
        }
    }
}

impl TraceSuiteSpec {
    fn generate(&self) -> Traces {
        let mut rng = Xoshiro256::seed_from_u64(self.trace_seed);
        let trace = match self.trace {
            TraceKind::Conference => ConferenceConfig::default().generate(&mut rng),
            TraceKind::Vehicular => VehicularConfig::default().generate(&mut rng),
        };
        let synthesized = self
            .sweeps
            .iter()
            .any(|sweep| sweep.synthesized)
            .then(|| Replay::of(resynthesize_memoryless(&trace, &mut rng)));
        Traces {
            actual: Replay::of(trace),
            synthesized,
        }
    }

    /// The optional time-series cell, then one cell per swept value.
    /// Their settings need the node count of `traces`; before the trace
    /// is generated the cells are labels and seeds only.
    fn cells_on(&self, spec: &str, traces: Option<&Traces>) -> Result<Vec<Cell>, ExpError> {
        let mut cells = Vec::new();
        let mut cell = |label, seed, utility, synthesized: bool| {
            let setting = traces.map(|traces| {
                let replay = traces.replay(synthesized);
                let config = SimConfig::builder(self.items, self.rho)
                    .demand(pareto_demand(self.items))
                    .profile(DemandProfile::uniform(self.items, replay.source.nodes()))
                    .utility(utility)
                    .bin(self.bin)
                    .warmup_fraction(self.warmup_fraction)
                    .build();
                (config, replay.source.clone())
            });
            cells.push(Cell::simulated(label, (seed, self.trials), setting, ()));
        };
        if let Some(ts) = &self.timeseries {
            let label = format!("{} timeseries", ts.file);
            cell(label, ts.seed, utility_of(spec, &ts.utility)?, false);
        }
        for sweep in &self.sweeps {
            let tag = if sweep.synthesized {
                " (synthesized)"
            } else {
                ""
            };
            for &value in &sweep.axis.values {
                let label = format!("{}={value}{tag}", sweep.axis.param);
                let utility = family_utility(spec, &sweep.axis.family, value)?;
                cell(label, sweep.axis.seed, utility, sweep.synthesized);
            }
        }
        Ok(cells)
    }
}

/// Figs. 5–6: generate the trace from its seed, run the optional
/// observed-utility time series (Fig. 5a, on the actual trace), then each
/// sweep axis — on the actual trace or (Fig. 5c) on the memoryless
/// resynthesis.
impl Kind for TraceSuiteSpec {
    type What = ();

    fn outputs(&self) -> Vec<String> {
        let sweeps = self.sweeps.iter().map(|sweep| &sweep.axis.file);
        self.timeseries
            .iter()
            .map(|ts| &ts.file)
            .chain(sweeps)
            .cloned()
            .collect()
    }

    fn cells(&self, spec: &str) -> Result<Vec<Cell>, ExpError> {
        self.cells_on(spec, None)
    }

    fn run<S: Sink>(&self, run: &mut Run<'_, '_, S>) -> Result<(), ExpError> {
        let traces = self.generate();
        let mut cells = self.cells_on(&run.spec.name, Some(&traces))?.into_iter();
        // OPT is the heterogeneous greedy on the replayed trace's rates.
        let competitors = |stats: &TraceStats, config: &SimConfig| {
            trace_competitors(
                stats,
                self.rho,
                &config.demand,
                &config.profile,
                config.utility.as_ref(),
            )
        };

        // The time series, when there is one, is the first cell.
        for (ts, cell) in self.timeseries.iter().zip(cells.by_ref()) {
            let stats = &traces.actual.stats;
            let suite = run.suite(&cell, |config| competitors(stats, config))?;
            let columns: Vec<(&str, &[f64])> = suite
                .iter()
                .map(|(label, agg)| (label.as_str(), agg.observed_series.as_slice()))
                .collect();
            let table = Table::series(self.bin, &columns);
            run.emit(&ts.file, &table, &[ts.seed], self.trials)?;
        }

        for sweep in &self.sweeps {
            let replay = traces.replay(sweep.synthesized);
            let axis = &sweep.axis;
            let mut table = Table::sweep(&axis.param);
            for (&value, cell) in axis.values.iter().zip(cells.by_ref()) {
                let suite = run.suite(&cell, |config| competitors(&replay.stats, config))?;
                table.point(value, &normalized_losses(&run.spec.name, &suite)?);
            }
            run.emit(&axis.file, &table, &[axis.seed], self.trials)?;
        }
        Ok(())
    }
}
