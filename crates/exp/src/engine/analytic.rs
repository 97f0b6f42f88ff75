//! Engines for the analytic (simulation-free) experiment kinds:
//! Fig. 1's utility curves, Fig. 2's allocation exponent, Table 1's
//! closed forms, and the mixed-catalog welfare comparison.

use std::sync::Arc;
use std::time::Instant;

use impatience_core::demand::{DemandRates, Popularity};
use impatience_core::solver::fixed::{proportional, sqrt_proportional, uniform};
use impatience_core::solver::greedy::greedy_homogeneous;
use impatience_core::solver::relaxed::relaxed_optimum;
use impatience_core::types::SystemModel;
use impatience_core::utility::{DelayUtility, Exponential, NegLog, Power, UtilityKind};
use impatience_core::welfare::{
    greedy_homogeneous_mixed, social_welfare_homogeneous_mixed, UtilityCatalog,
};
use impatience_obs::Sink;

use super::{Cell, Kind, Run, Table};
use crate::error::ExpError;
use crate::spec::{
    utility_of, AllocExponentSpec, ClosedFormsSpec, MixedCatalogSpec, UtilityCurvesSpec,
};

/// Fig. 1: sample `h(t)` for each panel's utility families. One cell and
/// one CSV per panel.
impl Kind for UtilityCurvesSpec {
    type What = ();

    fn outputs(&self) -> Vec<String> {
        self.panels.iter().map(|p| p.file.clone()).collect()
    }

    fn cells(&self, _spec: &str) -> Result<Vec<Cell>, ExpError> {
        Ok(self
            .panels
            .iter()
            .map(|p| Cell::analytic(&p.file))
            .collect())
    }

    fn run<S: Sink>(&self, run: &mut Run<'_, '_, S>) -> Result<(), ExpError> {
        for (panel, cell) in self.panels.iter().zip(self.cells(&run.spec.name)?) {
            let started = Instant::now();
            let utilities: Vec<Arc<dyn DelayUtility>> = panel
                .utilities
                .iter()
                .map(|u| utility_of(&run.spec.name, u))
                .collect::<Result<_, _>>()?;
            let mut header = "t".to_string();
            for name in &panel.labels {
                header.push(',');
                header.push_str(name);
            }
            let mut rows = Vec::new();
            for k in 1..=self.points {
                let t = self.t_step * k as f64;
                let mut row = format!("{t}");
                for u in &utilities {
                    row.push_str(&format!(",{}", u.h(t)));
                }
                rows.push(row);
            }
            let table = Table { header, rows };
            run.emit(&panel.file, &table, &[], 0)?;
            run.cell_done(&cell.label, table.rows.len() as u64, started);
        }
        Ok(())
    }
}

/// Refuse a count that `SystemModel` or `Popularity` asserts is at least 1.
fn at_least_one(spec: &str, counts: &[(&str, usize)]) -> Result<(), ExpError> {
    match counts.iter().find(|(_, n)| *n == 0) {
        Some((name, _)) => Err(ExpError::spec(spec, format!("{name} must be at least 1"))),
        None => Ok(()),
    }
}

/// Refuse a rate that `SystemModel` or `Exponential` asserts is positive
/// and finite.
fn positive(spec: &str, name: &str, value: f64) -> Result<(), ExpError> {
    if value > 0.0 && value.is_finite() {
        Ok(())
    } else {
        Err(ExpError::spec(
            spec,
            format!("{name} must be positive and finite, got {value}"),
        ))
    }
}

/// Least-squares slope of `ln x` against `ln d`, skipping clamped points.
fn fit_slope(d: &[f64], x: &[f64]) -> f64 {
    let pts: Vec<(f64, f64)> = d
        .iter()
        .zip(x)
        .filter(|&(&di, &xi)| di > 0.0 && xi > 1e-7)
        .map(|(&di, &xi)| (di.ln(), xi.ln()))
        .collect();
    let n = pts.len() as f64;
    let (sx, sy) = pts
        .iter()
        .fold((0.0, 0.0), |(a, b), &(u, v)| (a + u, b + v));
    let (sxx, sxy) = pts
        .iter()
        .fold((0.0, 0.0), |(a, b), &(u, v)| (a + u * u, b + u * v));
    (n * sxy - sx * sy) / (n * sxx - sx * sx)
}

/// Fig. 2: the relaxed optimum satisfies `x̃_i ∝ d_i^{1/(2−α)}`
/// (Property 1 water-filling); fit the log-log slope and compare with
/// the analytic exponent. The α grid is carried as integer tenths so the
/// swept values are bit-exact; α = 1 is realized by NegLog.
impl Kind for AllocExponentSpec {
    type What = ();

    fn outputs(&self) -> Vec<String> {
        vec![self.file.clone()]
    }

    fn cells(&self, _spec: &str) -> Result<Vec<Cell>, ExpError> {
        Ok(vec![Cell::analytic(&self.file)])
    }

    fn check(&self, spec: &str) -> Result<(), ExpError> {
        let counts = [
            ("clients", self.clients),
            ("servers", self.servers),
            ("items", self.items),
        ];
        at_least_one(spec, &counts)?;
        positive(spec, "mu", self.mu)?;
        // Pareto weights (i+1)^(−ω): the largest is 1 or items^(−ω).
        if !self.omega.is_finite() || !(self.items as f64).powf(-self.omega).is_finite() {
            let message = format!(
                "omega {} gives a Pareto weight that is not finite",
                self.omega
            );
            return Err(ExpError::spec(spec, message));
        }
        let (min, max) = self.alpha_tenths;
        if min <= max && max >= 20 {
            let message = format!("alpha_tenths_max must be below 20 (α < 2), got {max}");
            return Err(ExpError::spec(spec, message));
        }
        Ok(())
    }

    fn run<S: Sink>(&self, run: &mut Run<'_, '_, S>) -> Result<(), ExpError> {
        let started = Instant::now();
        let cell = &self.cells(&run.spec.name)?[0];
        let system = SystemModel::dedicated(self.clients, self.servers, self.rho, self.mu);
        let demand = Popularity::pareto(self.items, self.omega).demand_rates(1.0);
        let mut rows = Vec::new();
        for k in self.alpha_tenths.0..=self.alpha_tenths.1 {
            if k == 10 {
                continue; // α = 1 diverges for the power family; NegLog covers it below.
            }
            let alpha = 0.1 * k as f64;
            let utility = Power::new(alpha);
            let relaxed = relaxed_optimum(&system, &demand, &utility);
            let fitted = fit_slope(demand.rates(), &relaxed.x);
            let expect = utility.allocation_exponent();
            rows.push(format!("{alpha},{fitted},{expect}"));
        }
        let relaxed = relaxed_optimum(&system, &demand, &NegLog::new());
        let fitted = fit_slope(demand.rates(), &relaxed.x);
        rows.push(format!("1,{fitted},1"));
        let table = Table::new("alpha,fitted_exponent,analytic_exponent", rows);
        run.emit(&self.file, &table, &[], 0)?;
        run.cell_done(&cell.label, table.rows.len() as u64, started);
        Ok(())
    }
}

fn rel_err(closed: f64, numeric: f64) -> f64 {
    if closed == numeric {
        return 0.0;
    }
    (closed - numeric).abs() / closed.abs().max(numeric.abs()).max(1e-300)
}

/// Table 1: for every family, cross-validate the closed-form gain `G`,
/// equilibrium transform `φ` and reaction function `ψ` against direct
/// numerical integration.
impl Kind for ClosedFormsSpec {
    type What = ();

    fn outputs(&self) -> Vec<String> {
        vec![self.file.clone()]
    }

    fn cells(&self, _spec: &str) -> Result<Vec<Cell>, ExpError> {
        Ok(self.labels.iter().map(|l| Cell::analytic(l)).collect())
    }

    fn run<S: Sink>(&self, run: &mut Run<'_, '_, S>) -> Result<(), ExpError> {
        let mu = self.mu;
        let mut rows = Vec::new();
        for (family, cell) in self.families.iter().zip(self.cells(&run.spec.name)?) {
            let started = Instant::now();
            let name = &cell.label;
            let u = utility_of(&run.spec.name, family)?;
            for &x in &self.gain_points {
                let lambda = mu * x;
                let closed = u.gain(lambda);
                let numeric = u.gain_numeric(lambda).map_err(|e| {
                    ExpError::spec(&run.spec.name, format!("{name}: gain integral failed: {e}"))
                })?;
                let e = rel_err(closed, numeric);
                rows.push(format!("{name},gain,{x},{closed},{numeric},{e}"));
            }
            // φ(x): the step family's differential utility is a Dirac
            // measure, so its numeric column uses a finite-difference of the
            // (already verified) gain.
            for &x in &self.phi_points {
                let closed = u.phi(x, mu);
                let numeric = match u.kind() {
                    UtilityKind::Step { .. } => {
                        let eps = 1e-6 * x;
                        (u.gain(mu * (x + eps)) - u.gain(mu * (x - eps))) / (2.0 * eps)
                    }
                    _ => u.phi_numeric(x, mu).map_err(|e| {
                        ExpError::spec(&run.spec.name, format!("{name}: phi integral failed: {e}"))
                    })?,
                };
                let e = rel_err(closed, numeric);
                rows.push(format!("{name},phi,{x},{closed},{numeric},{e}"));
            }
            // ψ(y) against the defining relation (s/y)·φ(s/y).
            for &y in &self.psi_points {
                let closed = u.psi(y, self.servers, mu);
                let x = self.servers / y;
                let numeric = x * u.phi(x, mu);
                let e = rel_err(closed, numeric);
                rows.push(format!("{name},psi,{y},{closed},{numeric},{e}"));
            }
            let points = self.gain_points.len() + self.phi_points.len() + self.psi_points.len();
            run.cell_done(name, points as u64, started);
        }
        let table = Table::new("family,quantity,point,closed,numeric,rel_err", rows);
        run.emit(&self.file, &table, &[], 0)
    }
}

/// Mixed-catalog extension: even items urgent, odd items patient; every
/// allocation strategy evaluated under the true per-item welfare.
impl Kind for MixedCatalogSpec {
    type What = ();

    fn outputs(&self) -> Vec<String> {
        vec![self.file.clone()]
    }

    fn cells(&self, _spec: &str) -> Result<Vec<Cell>, ExpError> {
        Ok(vec![Cell::analytic(&self.file)])
    }

    fn check(&self, spec: &str) -> Result<(), ExpError> {
        at_least_one(spec, &[("items", self.items), ("nodes", self.nodes)])?;
        positive(spec, "mu", self.mu)?;
        positive(spec, "urgent_nu", self.urgent_nu)?;
        positive(spec, "patient_nu", self.patient_nu)?;
        let average = (self.urgent_nu * self.patient_nu).sqrt();
        positive(
            spec,
            "the geometric mean of urgent_nu and patient_nu",
            average,
        )
    }

    fn run<S: Sink>(&self, run: &mut Run<'_, '_, S>) -> Result<(), ExpError> {
        let started = Instant::now();
        let cell = &self.cells(&run.spec.name)?[0];
        let system = SystemModel::pure_p2p(self.nodes, self.rho, self.mu);
        let demand: DemandRates = Popularity::pareto(self.items, 1.0).demand_rates(1.0);
        let catalog = UtilityCatalog::new(
            (0..self.items)
                .map(|i| -> Arc<dyn DelayUtility> {
                    if i % 2 == 0 {
                        Arc::new(Exponential::new(self.urgent_nu))
                    } else {
                        Arc::new(Exponential::new(self.patient_nu))
                    }
                })
                .collect(),
        );
        let evaluate = |counts: &[u32]| {
            let xs: Vec<f64> = counts.iter().map(|&c| c as f64).collect();
            social_welfare_homogeneous_mixed(&system, &demand, &catalog, &xs)
        };
        let mixed_opt = greedy_homogeneous_mixed(&system, &demand, &catalog);
        let w_star = evaluate(mixed_opt.counts());

        let mut rows = Vec::new();
        let mut push = |name: &str, counts: &[u32]| {
            let w = evaluate(counts);
            let loss = 100.0 * (w - w_star) / w_star.abs();
            rows.push(format!("{name},{w},{loss}"));
        };
        push("mixed-aware greedy", mixed_opt.counts());
        for (name, nu) in [
            ("assume-all-urgent", self.urgent_nu),
            ("assume-all-patient", self.patient_nu),
            ("assume-average", (self.urgent_nu * self.patient_nu).sqrt()),
        ] {
            let counts = greedy_homogeneous(&system, &demand, &Exponential::new(nu));
            push(name, counts.counts());
        }
        push("UNI", uniform(self.items, self.nodes, self.rho).counts());
        push(
            "SQRT",
            sqrt_proportional(&demand, self.nodes, self.rho).counts(),
        );
        push("PROP", proportional(&demand, self.nodes, self.rho).counts());

        let table = Table::new("strategy,welfare,loss_vs_mixed_pct", rows);
        run.emit(&self.file, &table, &[], 0)?;
        run.cell_done(&cell.label, table.rows.len() as u64, started);
        Ok(())
    }
}
