//! Adaptive Simpson quadrature on finite intervals and a tail-splitting
//! scheme for the semi-infinite integrals `∫₀^∞ f(t) dt` that define the
//! expected gain (Lemma 1) and the equilibrium transform φ (Property 1).
//!
//! The integrands of interest decay exponentially (`e^{−λt}·c(t)` with
//! `λ > 0`), so the semi-infinite routine integrates dyadically expanding
//! windows `[0,T], [T,2T], [2T,4T], …` until the window contribution falls
//! below the requested tolerance.

/// Failure modes of the quadrature routines.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QuadratureError {
    /// The integrand produced a NaN value.
    NotFinite,
    /// The tail did not converge within the iteration budget.
    TailDiverged,
}

impl std::fmt::Display for QuadratureError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QuadratureError::NotFinite => write!(f, "integrand returned a non-finite value"),
            QuadratureError::TailDiverged => {
                write!(f, "semi-infinite tail did not converge within budget")
            }
        }
    }
}

impl std::error::Error for QuadratureError {}

fn simpson(fa: f64, fm: f64, fb: f64, h: f64) -> f64 {
    (fa + 4.0 * fm + fb) * h / 6.0
}

#[allow(clippy::too_many_arguments)] // recursion state is cheaper flat than boxed
fn adaptive(
    f: &mut dyn FnMut(f64) -> f64,
    a: f64,
    b: f64,
    fa: f64,
    fm: f64,
    fb: f64,
    whole: f64,
    tol: f64,
    depth: u32,
) -> Result<f64, QuadratureError> {
    let m = 0.5 * (a + b);
    let lm = 0.5 * (a + m);
    let rm = 0.5 * (m + b);
    let flm = f(lm);
    let frm = f(rm);
    if !flm.is_finite() || !frm.is_finite() {
        return Err(QuadratureError::NotFinite);
    }
    let left = simpson(fa, flm, fm, m - a);
    let right = simpson(fm, frm, fb, b - m);
    let delta = left + right - whole;
    if depth == 0 || delta.abs() <= 15.0 * tol {
        // Richardson extrapolation term.
        Ok(left + right + delta / 15.0)
    } else {
        let l = adaptive(f, a, m, fa, flm, fm, left, 0.5 * tol, depth - 1)?;
        let r = adaptive(f, m, b, fm, frm, fb, right, 0.5 * tol, depth - 1)?;
        Ok(l + r)
    }
}

/// Adaptive Simpson integration of `f` over the finite interval `[a, b]`
/// with absolute tolerance `tol`.
///
/// Integrable endpoint singularities should be handled by the caller
/// (e.g. by substitution); the routine evaluates `f` at both endpoints.
pub fn integrate(
    mut f: impl FnMut(f64) -> f64,
    a: f64,
    b: f64,
    tol: f64,
) -> Result<f64, QuadratureError> {
    if a == b {
        return Ok(0.0);
    }
    let (a, b, sign) = if a < b { (a, b, 1.0) } else { (b, a, -1.0) };
    let fa = f(a);
    let m = 0.5 * (a + b);
    let fm = f(m);
    let fb = f(b);
    if !fa.is_finite() || !fm.is_finite() || !fb.is_finite() {
        return Err(QuadratureError::NotFinite);
    }
    let whole = simpson(fa, fm, fb, b - a);
    let v = adaptive(&mut f, a, b, fa, fm, fb, whole, tol.max(f64::EPSILON), 40)?;
    Ok(sign * v)
}

/// Dyadic-window integration of `f` over `[start, ∞)`, assuming `f`
/// eventually decays fast enough for the window sums to converge (true
/// for `e^{−λt}` envelopes); `scale` is the first window's width.
fn integrate_tail(
    mut f: impl FnMut(f64) -> f64,
    start: f64,
    scale: f64,
    tol: f64,
) -> Result<f64, QuadratureError> {
    let mut lo = start;
    let mut width = scale;
    let mut total = 0.0;
    // 64 dyadically growing windows cover ~2^64·scale: plenty for any
    // exponentially decaying integrand.
    for window in 0..64 {
        let hi = lo + width;
        let part = integrate(&mut f, lo, hi, tol * 0.25)?;
        total += part;
        // Converged once two consecutive windows contribute ~nothing.
        if window >= 2 && part.abs() < tol * 0.25 {
            return Ok(total);
        }
        lo = hi;
        width *= 2.0;
    }
    Err(QuadratureError::TailDiverged)
}

/// Integrate `f` over `[0, ∞)` where `f` may have an *integrable*
/// singularity at `t = 0` (e.g. `t^{−β}`, `β < 1`, or `ln t`).
///
/// The head `[0, scale]` is computed under the substitution `t = u^16`,
///
/// ```text
/// ∫₀^s f(t) dt = ∫₀^{s^{1/16}} f(u¹⁶)·16·u¹⁵ du ,
/// ```
///
/// which regularizes `t^{−β}` for `β < 1 − 1/16` (the transformed
/// integrand behaves as `u^{16(1−β)−1}`) — enough for the paper's power
/// family up to `α < 2 − 1/16` (the `φ` integrand is `t^{1−α}`). The
/// smooth tail `[scale, ∞)` is integrated without substitution so that
/// exponential decay is resolved at its natural width. The point `t = 0`
/// contributes zero and is short-circuited.
///
/// `scale` should be a characteristic time of the integrand (e.g. `1/λ`);
/// the result is insensitive to the exact choice. `tol` is the absolute
/// tolerance.
pub fn integrate_semi_infinite_singular(
    mut f: impl FnMut(f64) -> f64,
    scale: f64,
    tol: f64,
) -> Result<f64, QuadratureError> {
    const P: i32 = 16;
    let scale = if scale.is_finite() && scale > 0.0 {
        scale
    } else {
        1.0
    };
    let head = integrate(
        |u: f64| {
            let t = u.powi(P);
            if t == 0.0 {
                // u = 0 or underflow: the integrable singularity
                // contributes nothing in the limit.
                return 0.0;
            }
            f(t) * P as f64 * u.powi(P - 1)
        },
        0.0,
        scale.powf(1.0 / P as f64),
        0.5 * tol,
    )?;
    let tail = integrate_tail(f, scale, scale, 0.5 * tol)?;
    Ok(head + tail)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() <= tol, "{a} vs {b}");
    }

    #[test]
    fn polynomial_exact() {
        // Simpson is exact on cubics.
        let v = integrate(|t| t * t * t - 2.0 * t + 1.0, 0.0, 2.0, 1e-12).unwrap();
        close(v, 4.0 - 4.0 + 2.0, 1e-10);
    }

    #[test]
    fn reversed_limits_negate() {
        let v1 = integrate(|t| t.sin(), 0.0, 1.0, 1e-10).unwrap();
        let v2 = integrate(|t| t.sin(), 1.0, 0.0, 1e-10).unwrap();
        close(v1, -v2, 1e-12);
    }

    #[test]
    fn zero_width_interval() {
        let v = integrate(|t| t.exp(), 3.0, 3.0, 1e-10).unwrap();
        assert_eq!(v, 0.0);
    }

    #[test]
    fn oscillatory() {
        let v = integrate(|t| (10.0 * t).sin(), 0.0, std::f64::consts::PI, 1e-10).unwrap();
        // ∫ sin(10t) over [0,π] = (1 − cos(10π))/10 = 0
        close(v, 0.0, 1e-8);
    }

    #[test]
    fn semi_infinite_exponential() {
        for lambda in [0.1, 1.0, 5.0, 40.0] {
            let v = integrate_semi_infinite_singular(|t| (-lambda * t).exp(), 1.0 / lambda, 1e-10)
                .unwrap();
            close(v, 1.0 / lambda, 1e-7);
        }
    }

    #[test]
    fn semi_infinite_gamma_like() {
        // ∫ t e^{−t} dt = 1
        let v = integrate_semi_infinite_singular(|t| t * (-t).exp(), 1.0, 1e-10).unwrap();
        close(v, 1.0, 1e-8);
        // ∫ t² e^{−2t} dt = 2/8 = 0.25
        let v = integrate_semi_infinite_singular(|t| t * t * (-2.0 * t).exp(), 0.5, 1e-10).unwrap();
        close(v, 0.25, 1e-8);
    }

    #[test]
    fn semi_infinite_handles_bad_scale() {
        let v = integrate_semi_infinite_singular(|t| (-t).exp(), f64::NAN, 1e-9).unwrap();
        close(v, 1.0, 1e-6);
        let v = integrate_semi_infinite_singular(|t| (-t).exp(), 0.0, 1e-9).unwrap();
        close(v, 1.0, 1e-6);
    }

    #[test]
    fn singular_integrands() {
        // ∫₀^∞ t^{−1/2} e^{−t} dt = Γ(1/2) = √π
        let v = integrate_semi_infinite_singular(|t| t.powf(-0.5) * (-t).exp(), 1.0, 1e-9).unwrap();
        close(v, std::f64::consts::PI.sqrt(), 1e-6);
        // ∫₀^∞ (−ln t)·e^{−t} dt = γ (Euler–Mascheroni)
        let v = integrate_semi_infinite_singular(|t| -t.ln() * (-t).exp(), 1.0, 1e-9).unwrap();
        close(v, 0.577_215_664_901_532_9, 1e-6);
        // Strong (but integrable) singularity: ∫ t^{−0.9} e^{−t} = Γ(0.1)
        let v = integrate_semi_infinite_singular(|t| t.powf(-0.9) * (-t).exp(), 1.0, 1e-9).unwrap();
        close(v, 9.513_507_698_668_732, 1e-4);
    }

    #[test]
    fn nan_integrand_reports_error() {
        let err = integrate(|t| if t > 0.5 { f64::NAN } else { 1.0 }, 0.0, 1.0, 1e-9);
        assert_eq!(err.unwrap_err(), QuadratureError::NotFinite);
    }

    #[test]
    fn nonconvergent_tail_reports_error() {
        let err = integrate_semi_infinite_singular(|_| 1.0, 1.0, 1e-9);
        assert_eq!(err.unwrap_err(), QuadratureError::TailDiverged);
    }

    #[test]
    fn error_display() {
        assert!(QuadratureError::NotFinite
            .to_string()
            .contains("non-finite"));
        assert!(QuadratureError::TailDiverged
            .to_string()
            .contains("converge"));
    }
}
