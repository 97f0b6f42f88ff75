//! Trace statistics: pairwise rate estimation and inter-contact-time
//! analysis.
//!
//! OPT on a real trace is computed "under the approximation of memoryless
//! contacts" (§6.3): estimate each pair's mean meeting rate from the trace
//! and feed the resulting [`ContactRates`] to the heterogeneous greedy.
//! The inter-contact distribution quantifies how far a trace is from
//! memoryless (exponential ICTs have coefficient of variation 1; bursty
//! traces exceed it).

use impatience_core::welfare::ContactRates;

use crate::ContactTrace;

/// Summary statistics of a contact trace.
#[derive(Clone, Debug)]
pub struct TraceStats {
    nodes: usize,
    duration: f64,
    rates: ContactRates,
    intercontact: Vec<f64>,
    /// Inter-contact times divided by their pair's mean gap (pairs with at
    /// least [`MIN_GAPS_FOR_NORMALIZATION`] observations only).
    normalized_intercontact: Vec<f64>,
}

/// Minimum gaps a pair must contribute before its normalized ICTs count.
const MIN_GAPS_FOR_NORMALIZATION: usize = 5;

impl TraceStats {
    /// Estimate statistics from a trace.
    pub fn from_trace(trace: &ContactTrace) -> Self {
        let n = trace.nodes();
        let duration = trace.duration();
        let mut counts = vec![0u32; n * n];
        let mut last_seen: Vec<Option<f64>> = vec![None; n * n];
        let mut intercontact = Vec::new();
        let mut per_pair_gaps: std::collections::HashMap<usize, Vec<f64>> =
            std::collections::HashMap::new();
        for e in trace.events() {
            let idx = e.a as usize * n + e.b as usize;
            counts[idx] += 1;
            if let Some(prev) = last_seen[idx] {
                let gap = e.time - prev;
                intercontact.push(gap);
                per_pair_gaps.entry(idx).or_default().push(gap);
            }
            last_seen[idx] = Some(e.time);
        }
        let rates = ContactRates::from_fn(n, |a, b| {
            let (lo, hi) = if a < b { (a, b) } else { (b, a) };
            counts[lo * n + hi] as f64 / duration
        });
        let mut normalized_intercontact = Vec::new();
        for gaps in per_pair_gaps.values() {
            if gaps.len() < MIN_GAPS_FOR_NORMALIZATION {
                continue;
            }
            let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
            if mean > 0.0 {
                normalized_intercontact.extend(gaps.iter().map(|g| g / mean));
            }
        }
        TraceStats {
            nodes: n,
            duration,
            rates,
            intercontact,
            normalized_intercontact,
        }
    }

    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// Observation-window length.
    pub fn duration(&self) -> f64 {
        self.duration
    }

    /// Estimated pairwise meeting rates (contacts per unit time).
    pub fn rates(&self) -> &ContactRates {
        &self.rates
    }

    /// Mean of the pooled inter-contact times (`NaN` if none observed).
    pub fn mean_intercontact(&self) -> f64 {
        if self.intercontact.is_empty() {
            return f64::NAN;
        }
        self.intercontact.iter().sum::<f64>() / self.intercontact.len() as f64
    }

    /// Coefficient of variation of the pooled inter-contact times.
    ///
    /// ≈ 1 for memoryless (exponential) contacts; substantially above 1
    /// indicates burstiness (heavy-tailed gaps), the signature property of
    /// the conference trace.
    pub fn intercontact_cv(&self) -> f64 {
        let n = self.intercontact.len();
        if n < 2 {
            return f64::NAN;
        }
        let mean = self.mean_intercontact();
        let var = self
            .intercontact
            .iter()
            .map(|&x| (x - mean) * (x - mean))
            .sum::<f64>()
            / (n - 1) as f64;
        var.sqrt() / mean
    }

    /// Coefficient of variation of the *per-pair normalized*
    /// inter-contact times: each pair's gaps are divided by that pair's
    /// mean gap before pooling, which removes the spurious CV inflation a
    /// heterogeneous rate matrix causes in [`Self::intercontact_cv`].
    ///
    /// This is the burstiness measure of choice: ≈ 1 for memoryless
    /// contacts at *any* rate matrix; > 1 indicates genuinely heavy-tailed
    /// per-pair gaps.
    pub fn normalized_intercontact_cv(&self) -> f64 {
        let n = self.normalized_intercontact.len();
        if n < 2 {
            return f64::NAN;
        }
        let mean = self.normalized_intercontact.iter().sum::<f64>() / n as f64;
        let var = self
            .normalized_intercontact
            .iter()
            .map(|&x| (x - mean) * (x - mean))
            .sum::<f64>()
            / (n - 1) as f64;
        var.sqrt() / mean
    }

    /// Heterogeneity of pairwise rates: coefficient of variation of the
    /// off-diagonal rate entries. 0 for homogeneous contacts.
    pub fn rate_cv(&self) -> f64 {
        let n = self.nodes;
        if n < 2 {
            return f64::NAN;
        }
        let mut vals = Vec::with_capacity(n * (n - 1) / 2);
        for a in 0..n {
            for b in (a + 1)..n {
                vals.push(self.rates.rate(a, b));
            }
        }
        let mean = vals.iter().sum::<f64>() / vals.len() as f64;
        if mean == 0.0 {
            return f64::NAN;
        }
        let var = vals.iter().map(|&x| (x - mean) * (x - mean)).sum::<f64>() / vals.len() as f64;
        var.sqrt() / mean
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ContactEvent;
    use impatience_core::rng::Xoshiro256;

    #[test]
    fn rate_estimation_counts_per_time() {
        let trace = ContactTrace::new(
            3,
            100.0,
            vec![
                ContactEvent::new(10.0, 0, 1),
                ContactEvent::new(20.0, 0, 1),
                ContactEvent::new(30.0, 0, 1),
                ContactEvent::new(40.0, 1, 2),
            ],
        );
        let stats = TraceStats::from_trace(&trace);
        assert!((stats.rates().rate(0, 1) - 0.03).abs() < 1e-12);
        assert!((stats.rates().rate(1, 2) - 0.01).abs() < 1e-12);
        assert_eq!(stats.rates().rate(0, 2), 0.0);
    }

    #[test]
    fn mean_intercontact_per_pair() {
        let trace = ContactTrace::new(
            2,
            100.0,
            vec![
                ContactEvent::new(10.0, 0, 1),
                ContactEvent::new(25.0, 0, 1),
                ContactEvent::new(55.0, 0, 1),
            ],
        );
        let stats = TraceStats::from_trace(&trace);
        assert!((stats.mean_intercontact() - 22.5).abs() < 1e-12);
    }

    #[test]
    fn poisson_trace_has_cv_near_one() {
        let mut rng = Xoshiro256::seed_from_u64(5);
        let trace = crate::gen::poisson_homogeneous(10, 0.05, 5_000.0, &mut rng);
        let stats = TraceStats::from_trace(&trace);
        let cv = stats.intercontact_cv();
        assert!(
            (cv - 1.0).abs() < 0.1,
            "memoryless CV should be ≈ 1, got {cv}"
        );
        assert!(
            stats.rate_cv() < 0.35,
            "homogeneous rates, got CV {}",
            stats.rate_cv()
        );
    }

    #[test]
    fn empty_trace_statistics() {
        let trace = ContactTrace::new(3, 10.0, vec![]);
        let stats = TraceStats::from_trace(&trace);
        assert!(stats.mean_intercontact().is_nan());
        assert!(stats.intercontact_cv().is_nan());
        assert_eq!(stats.rates().mean_rate(), 0.0);
    }
}
