//! The workspace's one root finder: Brent's bracketed, derivative-free
//! method. It inverts the (strictly monotone) transform `φ` and finds the
//! water level in the solver of Property 1, and locates the stationary
//! point of the exponential-impatience likelihood in `utility::fit`.
//!
//! The functions it serves can be numerically integrated, so derivatives
//! are expensive and noisy: that rules Newton out, not interpolation. A
//! *bracketed* method never leaves an interval over which the sign
//! change was observed, so a secant or inverse-quadratic step misled by
//! quadrature noise costs one evaluation and is followed by a bisection
//! step, never a divergence; on smooth functions the interpolation
//! converges superlinearly, and on a function that is affine in the
//! chosen coordinates (the power family and neg-log in log–log, see
//! `solver::relaxed`) the first secant step already lands on the root.

/// Failure modes of [`brent`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum BracketError {
    /// `f(lo)` and `f(hi)` have the same sign — no guaranteed root inside.
    NoSignChange {
        /// Value at the lower bracket end.
        f_lo: f64,
        /// Value at the upper bracket end.
        f_hi: f64,
    },
    /// The function produced a non-finite value inside the bracket.
    NotFinite,
}

impl std::fmt::Display for BracketError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BracketError::NoSignChange { f_lo, f_hi } => {
                write!(
                    f,
                    "no sign change over bracket (f(lo)={f_lo}, f(hi)={f_hi})"
                )
            }
            BracketError::NotFinite => write!(f, "function not finite inside bracket"),
        }
    }
}

impl std::error::Error for BracketError {}

/// Most steps [`brent_between`] takes before it returns its best point.
/// Brent's safeguards force a bisection whenever interpolation stops
/// halving its own step, which keeps the count within a small multiple
/// of bisection's, and no caller's bracket is more than ~70 halvings
/// away from `f64` resolution: this is a backstop, not a tuning knob.
const MAX_STEPS: usize = 200;

/// Find a root of `f` in `[lo, hi]` to absolute `x`-tolerance `tol`.
/// Requires `f(lo)` and `f(hi)` to have opposite (or zero) signs; the
/// ends may be given in either order. Evaluates both ends, then hands
/// over to [`brent_between`].
pub fn brent(
    mut f: impl FnMut(f64) -> f64,
    lo: f64,
    hi: f64,
    tol: f64,
) -> Result<f64, BracketError> {
    let (f_lo, f_hi) = (f(lo), f(hi));
    brent_between(f, (lo, f_lo), (hi, f_hi), tol)
}

/// [`brent`] for callers that already hold the end values: `lo` and `hi`
/// are `(x, f(x))` pairs and `f` is not evaluated there again.
///
/// Each step proposes an inverse-quadratic (three distinct values) or
/// secant point and takes it only if it lies within three quarters of
/// the way from the best point to the bracket's other end and moves less
/// than half as far as the step before last; otherwise it bisects. The
/// returned point is the bracket end with the smaller `|f|`, once the
/// bracket is no wider than `tol + 4ε·|x|` — so `tol = 0` asks for `f64`
/// resolution — or `f` vanishes exactly.
pub fn brent_between(
    mut f: impl FnMut(f64) -> f64,
    lo: (f64, f64),
    hi: (f64, f64),
    tol: f64,
) -> Result<f64, BracketError> {
    // `b` is the best point so far, `c` the bracket's other end (sign
    // opposite to `b`'s), `a` the previous `b`.
    let ((mut a, mut fa), (mut b, mut fb)) = (lo, hi);
    if !fa.is_finite() || !fb.is_finite() {
        return Err(BracketError::NotFinite);
    }
    if fa == 0.0 {
        return Ok(a);
    }
    if fb == 0.0 {
        return Ok(b);
    }
    if fa.signum() == fb.signum() {
        let (f_lo, f_hi) = if a <= b { (fa, fb) } else { (fb, fa) };
        return Err(BracketError::NoSignChange { f_lo, f_hi });
    }
    let (mut c, mut fc) = (a, fa);
    // `step` is the move about to be made, `prev_step` the one before.
    let mut step = b - a;
    let mut prev_step = step;
    for _ in 0..MAX_STEPS {
        if fb.signum() == fc.signum() {
            (c, fc) = (a, fa);
            step = b - a;
            prev_step = step;
        }
        if fc.abs() < fb.abs() {
            (a, fa) = (b, fb);
            (b, fb) = (c, fc);
            (c, fc) = (a, fa);
        }
        let min_step = 2.0 * f64::EPSILON * b.abs() + 0.5 * tol;
        let half = 0.5 * (c - b);
        if half.abs() <= min_step || fb == 0.0 {
            return Ok(b);
        }
        // Bisect, unless an interpolated point qualifies.
        let (before_last, last) = (prev_step, step);
        (prev_step, step) = (half, half);
        if before_last.abs() >= min_step && fa.abs() > fb.abs() {
            // p/q is the proposed move from `b`.
            let s = fb / fa;
            let (mut p, mut q) = if a == c {
                (2.0 * half * s, 1.0 - s)
            } else {
                let (q, r) = (fa / fc, fb / fc);
                (
                    s * (2.0 * half * q * (q - r) - (b - a) * (r - 1.0)),
                    (q - 1.0) * (r - 1.0) * (s - 1.0),
                )
            };
            if p > 0.0 {
                q = -q;
            } else {
                p = -p;
            }
            let inside = 3.0 * half * q - (min_step * q).abs();
            if 2.0 * p < inside.min((before_last * q).abs()) {
                (prev_step, step) = (last, p / q);
            }
        }
        (a, fa) = (b, fb);
        b += if step.abs() > min_step {
            step
        } else {
            min_step.copysign(half)
        };
        fb = f(b);
        if !fb.is_finite() {
            return Err(BracketError::NotFinite);
        }
    }
    Ok(b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn finds_sqrt2() {
        let r = brent(|x| x * x - 2.0, 0.0, 2.0, 1e-12).unwrap();
        assert!((r - std::f64::consts::SQRT_2).abs() < 1e-10);
    }

    #[test]
    fn accepts_swapped_bracket() {
        let r = brent(|x| x - 1.0, 3.0, 0.0, 1e-12).unwrap();
        assert!((r - 1.0).abs() < 1e-10);
    }

    #[test]
    fn root_at_endpoint() {
        let r = brent(|x| x, 0.0, 5.0, 1e-12).unwrap();
        assert_eq!(r, 0.0);
        let r = brent(|x| x - 5.0, 0.0, 5.0, 1e-12).unwrap();
        assert_eq!(r, 5.0);
    }

    #[test]
    fn no_sign_change_is_error() {
        let e = brent(|x| x * x + 1.0 + x, -1.0, 1.0, 1e-9).unwrap_err();
        assert_eq!(
            e,
            BracketError::NoSignChange {
                f_lo: 1.0,
                f_hi: 3.0
            }
        );
        assert!(e.to_string().contains("no sign change"));
        // Values are reported by position, not by argument order.
        let swapped = brent(|x| x * x + 1.0 + x, 1.0, -1.0, 1e-9).unwrap_err();
        assert_eq!(swapped, e);
    }

    #[test]
    fn non_finite_is_error() {
        let e = brent(|_| f64::NAN, 0.0, 1.0, 1e-9).unwrap_err();
        assert_eq!(e, BracketError::NotFinite);
        // … also when the function only breaks inside the bracket.
        let inside = |x: f64| {
            if (0.2..0.8).contains(&x) {
                f64::NAN
            } else {
                x - 0.5
            }
        };
        assert_eq!(brent(inside, 0.0, 1.0, 1e-9), Err(BracketError::NotFinite));
    }

    #[test]
    fn decreasing_function() {
        // Decreasing through the root: ln(1/x) = 0 at x = 1.
        let r = brent(|x| (1.0 / x).ln(), 0.1, 10.0, 1e-12).unwrap();
        assert!((r - 1.0).abs() < 1e-9);
    }

    #[test]
    fn given_end_values_are_not_evaluated_again() {
        let mut seen = Vec::new();
        let f = |x: f64| {
            seen.push(x);
            x * x * x - 0.3
        };
        let r = brent_between(f, (0.0, -0.3), (1.0, 0.7), 1e-12).unwrap();
        assert!((r - 0.3f64.cbrt()).abs() < 1e-10);
        assert!(!seen.is_empty() && seen.iter().all(|&x| x > 0.0 && x < 1.0));
    }

    #[test]
    fn zero_tolerance_stops_at_float_resolution() {
        let mut evaluations = 0;
        let f = |x: f64| x.cos() - x;
        let r = brent(
            |x| {
                evaluations += 1;
                f(x)
            },
            0.0,
            1.0,
            0.0,
        )
        .unwrap();
        assert!(evaluations < 20, "{evaluations} evaluations");
        // The sign change sits within the 4ε·|r| the contract promises.
        let reach = 4.0 * f64::EPSILON * r;
        assert!(f(r - reach) > 0.0 && f(r + reach) < 0.0, "r = {r:e}");
    }

    /// A monotone function with a root at `root`, and the bracket to
    /// search: `(f, lo, hi)`.
    type Case = (Box<dyn Fn(f64) -> f64>, f64, f64);

    fn affine(slope: f64, root: f64) -> Case {
        (
            Box::new(move |x| slope * (x - root)),
            root - 7.0,
            root + 13.0,
        )
    }

    fn power_law(exponent: f64, root: f64) -> Case {
        // Decreasing like φ of the power family, on a raw (not log) axis.
        let f = move |x: f64| x.powf(-exponent) - root.powf(-exponent);
        (Box::new(f), 1e-3 * root, 1e3 * root)
    }

    fn exponential(k: f64, root: f64) -> Case {
        let f = move |x: f64| (-k * x).exp() - (-k * root).exp();
        (Box::new(f), 0.0, 4.0 * root + 1.0)
    }

    fn plateau(height: f64, root: f64) -> Case {
        // Flat at `height` up to half the root, then a straight descent
        // through it: the secant from the flat part overshoots.
        let f = move |x: f64| height * (1.0 - ((x - 0.5 * root) / (0.5 * root)).max(0.0));
        (Box::new(f), 0.0, 3.0 * root)
    }

    fn arb_case() -> impl Strategy<Value = (&'static str, Case)> {
        let slope = prop_oneof![0.01f64..100.0, -100.0f64..-0.01];
        prop_oneof![
            (slope, -50.0f64..50.0).prop_map(|(m, r)| ("affine", affine(m, r))),
            (0.2f64..3.0, 0.01f64..100.0).prop_map(|(e, r)| ("power-law", power_law(e, r))),
            (0.01f64..5.0, 0.1f64..20.0).prop_map(|(k, r)| ("exponential", exponential(k, r))),
            (0.1f64..10.0, 0.1f64..50.0).prop_map(|(h, r)| ("plateau", plateau(h, r))),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn monotone_functions_converge_within_tolerance(
            case in arb_case(),
            tol in prop_oneof![Just(0.0), 1e-14f64..1e-6],
        ) {
            let (kind, (f, lo, hi)) = case;
            let mut evaluations = 0usize;
            let r = brent(|x| { evaluations += 1; f(x) }, lo, hi, tol);
            prop_assert!(r.is_ok(), "{kind}: {r:?}");
            let r = r.unwrap();
            prop_assert!((lo..=hi).contains(&r), "{kind}: {r} left [{lo}, {hi}]");
            // A sign change lies within the promised distance of `r`.
            let reach = tol + 4.0 * f64::EPSILON * r.abs();
            let (below, above) = (f((r - reach).max(lo)), f((r + reach).min(hi)));
            prop_assert!(
                f(r) == 0.0 || below == 0.0 || above == 0.0 || below.signum() != above.signum(),
                "{kind}: no sign change within {reach:e} of {r}"
            );
            prop_assert!(
                evaluations < MAX_STEPS / 2,
                "{kind}: {evaluations} evaluations is near the cap"
            );
            if kind == "affine" {
                prop_assert!(evaluations <= 4, "affine took {evaluations} evaluations");
            }
        }
    }
}
