//! Estimating the delay-utility from user feedback — the paper's closing
//! open problem (§7): "how to estimate the delay-utility function
//! implicitly from user feedback, instead of assuming that it is known."
//!
//! The feedback model follows the advertising-revenue interpretation of
//! §3.2: when a request is fulfilled after waiting `t`, the user either
//! *consumes* the content (the network earns) or has lost interest. The
//! consumption probability at delay `t` **is** `h(t)` for the
//! step/exponential families, so observations are Bernoulli draws
//! `(t_k, consumed_k)` with `P(consumed | t) = h(t)`.
//!
//! Provided estimators:
//!
//! * [`fit_exponential`] — maximum-likelihood `ν` for `h(t) = e^{−νt}`;
//! * [`fit_empirical`] — distribution-free: a monotone (isotonic-
//!   regression) estimate of `h`, returned as a [`Custom`] utility usable
//!   with every solver and with QCR's numeric ψ.
//!
//! The closed loop — simulate feedback, fit, replicate with the fitted
//! reaction — is exercised in `examples/fitted_impatience.rs` and the
//! integration tests.

use std::sync::Arc;

use super::{Custom, DelayUtility};

/// One user-feedback observation: the request was fulfilled after
/// `delay`, and the user did (`consumed = true`) or did not use it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Feedback {
    /// Fulfillment delay experienced.
    pub delay: f64,
    /// Whether the content was still wanted.
    pub consumed: bool,
}

impl Feedback {
    /// Construct an observation.
    ///
    /// # Panics
    /// Panics on non-finite or negative delays.
    pub fn new(delay: f64, consumed: bool) -> Self {
        assert!(
            delay >= 0.0 && delay.is_finite(),
            "delay must be finite and ≥ 0"
        );
        Feedback { delay, consumed }
    }
}

/// Errors from the fitting routines.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FitError {
    /// Not enough observations to estimate anything.
    TooFewObservations {
        /// How many were provided.
        got: usize,
        /// The minimum required.
        need: usize,
    },
    /// The data is degenerate for the requested family (e.g. every
    /// observation consumed: ν̂ = 0 is outside the exponential family).
    Degenerate(&'static str),
}

impl std::fmt::Display for FitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FitError::TooFewObservations { got, need } => {
                write!(f, "need at least {need} observations, got {got}")
            }
            FitError::Degenerate(msg) => write!(f, "degenerate feedback data: {msg}"),
        }
    }
}

impl std::error::Error for FitError {}

/// Maximum-likelihood estimate of the exponential impatience rate `ν`
/// from Bernoulli feedback with `P(consumed | t) = e^{−νt}`.
///
/// The log-likelihood `Σ_consumed (−νt_k) + Σ_lost ln(1 − e^{−νt_k})` is
/// concave in `ν`; the unique stationary point is the bracketed root of
/// its derivative.
pub fn fit_exponential(data: &[Feedback]) -> Result<f64, FitError> {
    const MIN_OBS: usize = 10;
    if data.len() < MIN_OBS {
        return Err(FitError::TooFewObservations {
            got: data.len(),
            need: MIN_OBS,
        });
    }
    let losses = data.iter().filter(|f| !f.consumed && f.delay > 0.0).count();
    if losses == 0 {
        return Err(FitError::Degenerate(
            "every observation was consumed; ν is indistinguishable from 0",
        ));
    }
    if data.iter().all(|f| !f.consumed) {
        return Err(FitError::Degenerate(
            "no observation was consumed; ν is unbounded",
        ));
    }
    // dL/dν = −Σ_consumed t + Σ_lost t·e^{−νt}/(1 − e^{−νt}); strictly
    // decreasing in ν from +∞ (ν→0⁺, thanks to the lost terms) to the
    // negative consumed sum.
    let score = |nu: f64| -> f64 {
        let mut s = 0.0;
        for f in data {
            if f.delay == 0.0 {
                continue; // h(0)=1: a zero-delay observation carries no ν information
            }
            if f.consumed {
                s -= f.delay;
            } else {
                let e = (-nu * f.delay).exp();
                s += f.delay * e / (1.0 - e);
            }
        }
        s
    };
    // Bracket: score(ν→0⁺) = +∞; grow hi until the score is negative.
    let mut lo = 1e-12;
    let mut hi = 1.0;
    while score(hi) > 0.0 {
        hi *= 4.0;
        if hi > 1e12 {
            return Err(FitError::Degenerate("likelihood has no interior maximum"));
        }
    }
    while score(lo) < 0.0 {
        lo /= 4.0;
        if lo < 1e-300 {
            return Err(FitError::Degenerate("likelihood maximized at ν = 0"));
        }
    }
    let nu = crate::numeric::brent(score, lo, hi, 0.0)
        .expect("score is continuous and changes sign over the bracket");
    Ok(nu)
}

/// Distribution-free estimate of a non-increasing `h` via binned means +
/// isotonic regression (pool-adjacent-violators), returned as a
/// [`Custom`] utility that linearly interpolates between bin centers.
///
/// `bins` controls the resolution; delays beyond the largest observation
/// extrapolate flat at the last level.
pub fn fit_empirical(data: &[Feedback], bins: usize) -> Result<Arc<dyn DelayUtility>, FitError> {
    const MIN_OBS: usize = 20;
    if data.len() < MIN_OBS {
        return Err(FitError::TooFewObservations {
            got: data.len(),
            need: MIN_OBS,
        });
    }
    assert!(bins >= 2, "need at least two bins");
    let max_delay = data
        .iter()
        .map(|f| f.delay)
        .fold(0.0f64, f64::max)
        .max(f64::MIN_POSITIVE);
    let width = max_delay / bins as f64;
    let mut sums = vec![0.0f64; bins];
    let mut counts = vec![0usize; bins];
    for f in data {
        let b = ((f.delay / width) as usize).min(bins - 1);
        sums[b] += f64::from(u8::from(f.consumed));
        counts[b] += 1;
    }
    // Empirical consumption rate per bin (empty bins inherit later).
    let mut level: Vec<f64> = Vec::with_capacity(bins);
    let mut weight: Vec<f64> = Vec::with_capacity(bins);
    for b in 0..bins {
        if counts[b] > 0 {
            level.push(sums[b] / counts[b] as f64);
            weight.push(counts[b] as f64);
        } else {
            level.push(f64::NAN);
            weight.push(0.0);
        }
    }
    // Fill empty bins by carrying the previous estimate forward.
    let mut prev = 1.0;
    for l in level.iter_mut() {
        if l.is_nan() {
            *l = prev;
        } else {
            prev = *l;
        }
    }
    // Pool adjacent violators for a non-INCREASING fit: merge any block
    // whose mean exceeds its predecessor's.
    struct Block {
        mean: f64,
        weight: f64,
        bins: usize,
    }
    let mut blocks: Vec<Block> = Vec::new();
    for b in 0..bins {
        let mut cur = Block {
            mean: level[b],
            weight: weight[b].max(1e-9),
            bins: 1,
        };
        while let Some(prev) = blocks.last() {
            if prev.mean >= cur.mean {
                break;
            }
            // Violation (increasing): merge with the predecessor.
            let prev = blocks.pop().expect("checked by last()");
            cur = Block {
                mean: (prev.mean * prev.weight + cur.mean * cur.weight)
                    / (prev.weight + cur.weight),
                weight: prev.weight + cur.weight,
                bins: prev.bins + cur.bins,
            };
        }
        blocks.push(cur);
    }
    // Expand blocks back to per-bin levels.
    let mut fitted = Vec::with_capacity(bins);
    for block in &blocks {
        for _ in 0..block.bins {
            fitted.push(block.mean.clamp(0.0, 1.0));
        }
    }
    debug_assert_eq!(fitted.len(), bins);

    let centers: Vec<f64> = (0..bins).map(|b| (b as f64 + 0.5) * width).collect();
    let h0 = fitted[0];
    let h_inf = *fitted.last().expect("bins ≥ 2");
    let h = move |t: f64| -> f64 {
        if t <= centers[0] {
            return fitted[0];
        }
        if t >= *centers.last().unwrap() {
            return *fitted.last().unwrap();
        }
        let k = centers.partition_point(|&c| c < t);
        let (t0, t1) = (centers[k - 1], centers[k]);
        let frac = (t - t0) / (t1 - t0);
        fitted[k - 1] + frac * (fitted[k] - fitted[k - 1])
    };
    Ok(Arc::new(Custom::new(h, h0, h_inf)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Xoshiro256;
    use crate::utility::{DelayUtility, Exponential};

    fn synth_feedback(
        truth: &dyn DelayUtility,
        n: usize,
        max_delay: f64,
        seed: u64,
    ) -> Vec<Feedback> {
        let mut rng = Xoshiro256::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let t = rng.range(0.0, max_delay);
                let consumed = rng.bernoulli(truth.h(t).clamp(0.0, 1.0));
                Feedback::new(t, consumed)
            })
            .collect()
    }

    #[test]
    fn exponential_mle_recovers_nu() {
        for truth in [0.05, 0.3, 1.5] {
            let data = synth_feedback(&Exponential::new(truth), 20_000, 5.0 / truth, 7);
            let nu = fit_exponential(&data).unwrap();
            assert!(
                (nu - truth).abs() < 0.05 * truth,
                "ν̂ = {nu} vs truth {truth}"
            );
        }
    }

    #[test]
    fn empirical_fit_is_monotone_and_close() {
        let truth = Exponential::new(0.4);
        let data = synth_feedback(&truth, 50_000, 12.0, 10);
        let fitted = fit_empirical(&data, 24).unwrap();
        let mut prev = f64::INFINITY;
        for k in 1..=40 {
            let t = 0.3 * k as f64;
            let v = fitted.h(t);
            assert!(v <= prev + 1e-12, "fitted h not monotone at t={t}");
            prev = v;
            if t < 10.0 {
                assert!(
                    (v - truth.h(t)).abs() < 0.08,
                    "t={t}: fitted {v} vs truth {}",
                    truth.h(t)
                );
            }
        }
    }

    #[test]
    fn empirical_fit_supports_phi_and_psi() {
        // The fitted Custom utility flows through the numeric transforms,
        // approximating the truth's φ.
        let truth = Exponential::new(0.4);
        let data = synth_feedback(&truth, 50_000, 20.0, 11);
        let fitted = fit_empirical(&data, 30).unwrap();
        for x in [2.0, 8.0] {
            let a = fitted.phi(x, 0.05);
            let b = truth.phi(x, 0.05);
            assert!((a - b).abs() < 0.25 * b, "φ({x}): fitted {a} vs truth {b}");
        }
    }

    #[test]
    fn errors_on_degenerate_data() {
        let few = vec![Feedback::new(1.0, true); 3];
        assert!(matches!(
            fit_exponential(&few),
            Err(FitError::TooFewObservations { .. })
        ));
        let all_yes = vec![Feedback::new(1.0, true); 100];
        assert!(matches!(
            fit_exponential(&all_yes),
            Err(FitError::Degenerate(_))
        ));
        let all_no = vec![Feedback::new(1.0, false); 100];
        assert!(matches!(
            fit_exponential(&all_no),
            Err(FitError::Degenerate(_))
        ));
        let e = fit_exponential(&few).unwrap_err();
        assert!(e.to_string().contains("at least 10"));
    }

    #[test]
    #[should_panic(expected = "finite and ≥ 0")]
    fn feedback_rejects_negative_delay() {
        let _ = Feedback::new(-1.0, true);
    }
}
