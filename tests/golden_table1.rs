//! Golden snapshot of the paper's Table 1 closed forms.
//!
//! `results/table1_closed_forms.csv` (spec `experiments/table1.toml`)
//! cross-validates each closed form against numeric quadrature;
//! this test pins the *values themselves* so an accidental change to any
//! `gain`/`φ`/`ψ` implementation — even one that stays self-consistent
//! with its own numeric integral — trips CI. All values are evaluated at
//! the CSV's operating point μ = 0.05, |S| = 50.

use impatience_core::utility::{DelayUtility, Exponential, NegLog, Power, Step};

const MU: f64 = 0.05;
const SERVERS: f64 = 50.0;

/// Closed-form values are deterministic arithmetic — the tolerance only
/// absorbs platform differences in `exp`/`powf`/`ln` rounding.
const REL_TOL: f64 = 1e-12;

/// The density part `c(t) = −h′(t)` goes through a central finite
/// difference for families that don't override it, so it gets a looser
/// explicit tolerance.
const C_REL_TOL: f64 = 1e-9;

/// `family, quantity, point, expected` — the `closed` column of
/// `results/table1_closed_forms.csv`, verbatim. For `gain` the point is
/// the replica count `x` (so λ = μ·x), for `phi` it is `x`, for `psi`
/// the query count `y`.
const GOLDEN: &str = "\
step(tau=1),gain,1,0.04877057549928599
step(tau=1),gain,5,0.22119921692859512
step(tau=1),gain,25,0.7134952031398099
step(tau=1),phi,1,0.047561471225035706
step(tau=1),phi,5,0.03894003915357025
step(tau=1),phi,25,0.014325239843009506
step(tau=1),psi,2,0.35813099607523763
step(tau=1),psi,10,0.19470019576785122
step(tau=1),psi,50,0.047561471225035706
step(tau=10),gain,1,0.3934693402873666
step(tau=10),gain,5,0.9179150013761013
step(tau=10),gain,25,0.999996273346828
step(tau=10),phi,1,0.3032653298563167
step(tau=10),phi,5,0.0410424993119494
step(tau=10),phi,25,0.0000018633265860393355
step(tau=10),psi,2,0.00004658316465098338
step(tau=10),psi,10,0.205212496559747
step(tau=10),psi,50,0.3032653298563167
exp(nu=0.1),gain,1,0.3333333333333333
exp(nu=0.1),gain,5,0.7142857142857143
exp(nu=0.1),gain,25,0.9259259259259258
exp(nu=0.1),phi,1,0.2222222222222222
exp(nu=0.1),phi,5,0.040816326530612256
exp(nu=0.1),phi,25,0.0027434842249657067
exp(nu=0.1),psi,2,0.06858710562414266
exp(nu=0.1),psi,10,0.20408163265306123
exp(nu=0.1),psi,50,0.2222222222222222
exp(nu=1),gain,1,0.047619047619047616
exp(nu=1),gain,5,0.2
exp(nu=1),gain,25,0.5555555555555556
exp(nu=1),phi,1,0.045351473922902494
exp(nu=1),phi,5,0.032
exp(nu=1),phi,25,0.009876543209876543
exp(nu=1),psi,2,0.24691358024691357
exp(nu=1),psi,10,0.16
exp(nu=1),psi,50,0.045351473922902494
power(alpha=-1),gain,1,-400.0000000000001
power(alpha=-1),gain,5,-16.000000000000007
power(alpha=-1),gain,25,-0.6400000000000003
power(alpha=-1),phi,1,800.0000000000002
power(alpha=-1),phi,5,6.400000000000002
power(alpha=-1),phi,25,0.05120000000000001
power(alpha=-1),psi,2,1.2800000000000007
power(alpha=-1),psi,10,32.000000000000014
power(alpha=-1),psi,50,800.0000000000005
power(alpha=0),gain,1,-20.000000000000004
power(alpha=0),gain,5,-4.000000000000001
power(alpha=0),gain,25,-0.8000000000000003
power(alpha=0),phi,1,20.000000000000004
power(alpha=0),phi,5,0.8000000000000002
power(alpha=0),phi,25,0.03200000000000001
power(alpha=0),psi,2,0.8000000000000003
power(alpha=0),psi,10,4.000000000000002
power(alpha=0),psi,50,20.000000000000007
power(alpha=0.5),gain,1,-7.926654595212027
power(alpha=0.5),gain,5,-3.5449077018110344
power(alpha=0.5),gain,25,-1.5853309190424054
power(alpha=0.5),phi,1,3.9633272976060137
power(alpha=0.5),phi,5,0.3544907701811034
power(alpha=0.5),phi,25,0.03170661838084811
power(alpha=0.5),psi,2,0.7926654595212027
power(alpha=0.5),psi,10,1.7724538509055172
power(alpha=0.5),psi,50,3.9633272976060137
power(alpha=1.5),gain,1,0.7926654595212022
power(alpha=1.5),gain,5,1.7724538509055159
power(alpha=1.5),gain,25,3.963327297606011
power(alpha=1.5),phi,1,0.3963327297606011
power(alpha=1.5),phi,5,0.1772453850905516
power(alpha=1.5),phi,25,0.07926654595212022
power(alpha=1.5),psi,2,1.9816636488030057
power(alpha=1.5),psi,10,0.886226925452758
power(alpha=1.5),psi,50,0.39633272976060113
neglog,gain,1,-2.418516608652458
neglog,gain,5,-0.8090786962183577
neglog,gain,25,0.8003592162157427
neglog,phi,1,1
neglog,phi,5,0.2
neglog,phi,25,0.04
neglog,psi,2,1
neglog,psi,10,1
neglog,psi,50,1";

/// Pinned values of the differential delay-utility density `c(t)` at
/// t = 2 (the step family's `c` is a Dirac at τ with zero density — its
/// singular mass is pinned through `gain`/`phi` above and the jump
/// check in the test body). These are golden full-precision literals,
/// some of which happen to approximate named constants (2^{-1/2} for
/// power(α=0.5)) — that is the math, not a rounding mistake.
#[allow(clippy::approx_constant, clippy::excessive_precision)]
const GOLDEN_C: &[(&str, f64)] = &[
    ("exp(nu=0.1)", 0.08187307530779819),
    ("exp(nu=1)", 0.1353352832366127),
    ("power(alpha=-1)", 2.0),
    ("power(alpha=0)", 1.0),
    ("power(alpha=0.5)", 0.7071067811865476),
    ("power(alpha=1.5)", 0.3535533905932738),
    ("neglog", 0.5),
];

fn utility_for(family: &str) -> Box<dyn DelayUtility> {
    match family {
        "step(tau=1)" => Box::new(Step::new(1.0)),
        "step(tau=10)" => Box::new(Step::new(10.0)),
        "exp(nu=0.1)" => Box::new(Exponential::new(0.1)),
        "exp(nu=1)" => Box::new(Exponential::new(1.0)),
        "power(alpha=-1)" => Box::new(Power::new(-1.0)),
        "power(alpha=0)" => Box::new(Power::new(0.0)),
        "power(alpha=0.5)" => Box::new(Power::new(0.5)),
        "power(alpha=1.5)" => Box::new(Power::new(1.5)),
        "neglog" => Box::new(NegLog::new()),
        other => panic!("unknown family in golden table: {other}"),
    }
}

fn assert_close(family: &str, quantity: &str, point: f64, got: f64, expected: f64, tol: f64) {
    let err = (got - expected).abs() / expected.abs().max(1.0);
    assert!(
        err <= tol,
        "{family} {quantity}({point}) = {got:?}, golden {expected:?} (rel err {err:.3e} > {tol:.0e})"
    );
}

#[test]
fn table1_closed_forms_match_golden_snapshot() {
    let mut rows = 0;
    for line in GOLDEN.lines() {
        let mut fields = line.split(',');
        let family = fields.next().expect("family");
        let quantity = fields.next().expect("quantity");
        let point: f64 = fields.next().expect("point").parse().expect("point value");
        let expected: f64 = fields
            .next()
            .expect("expected")
            .parse()
            .expect("golden value");
        let u = utility_for(family);
        let got = match quantity {
            "gain" => u.gain(MU * point),
            "phi" => u.phi(point, MU),
            "psi" => u.psi(point, SERVERS, MU),
            other => panic!("unknown quantity {other}"),
        };
        assert_close(family, quantity, point, got, expected, REL_TOL);
        rows += 1;
    }
    assert_eq!(rows, 81, "golden table lost rows");
}

#[test]
fn differential_utility_density_matches_golden_values() {
    for &(family, expected) in GOLDEN_C {
        let u = utility_for(family);
        assert_close(family, "c", 2.0, u.c(2.0), expected, C_REL_TOL);
    }
    // The step family's c is the Dirac δ_τ: zero density away from the
    // deadline, unit mass across it.
    let step = Step::new(1.0);
    assert_eq!(step.c(2.0), 0.0, "step density away from τ");
    assert_close(
        "step(tau=1)",
        "jump",
        1.0,
        step.h(0.999) - step.h(1.001),
        1.0,
        1e-12,
    );
}
