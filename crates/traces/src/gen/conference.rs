//! The conference-trace generator — Infocom'06 substitute.
//!
//! The paper (§6.3) attributes its conference-scenario observations to two
//! trace properties beyond mean rates: (a) *heterogeneity* — pairwise
//! rates vary wildly with social structure, and (b) *complex time
//! statistics* — contacts are bursty (heavy-tailed inter-contact times)
//! and follow a day/night activity cycle visible in Fig. 5(a). This
//! generator reproduces exactly those mechanisms:
//!
//! * **community structure** — nodes are partitioned into groups; same-
//!   group pairs meet `affinity×` more often, and every node gets an
//!   individual sociability factor (log-spread), yielding a skewed rate
//!   matrix;
//! * **diurnal modulation** — a repeating 24 h activity profile (low at
//!   night, high during conference hours, medium in the evening) thins
//!   the contact processes;
//! * **burstiness** — pairwise inter-contact gaps are Pareto-distributed
//!   (shape ≈ 1.5, infinite variance in the limit), matching the
//!   heavy-tailed inter-contact observations of Chaintreau et al.
//!
//! Defaults mirror the Infocom'06 setting after the paper's
//! preprocessing: 50 nodes, 3 days, and a mean pairwise rate comparable
//! to the homogeneous experiments.

use impatience_core::rng::Xoshiro256;

use crate::{ContactEvent, ContactTrace};

/// Minutes per day.
const DAY: f64 = 1_440.0;

/// Configuration of the synthetic conference trace.
#[derive(Clone, Debug)]
pub struct ConferenceConfig {
    /// Number of attendees.
    pub nodes: usize,
    /// Trace length in minutes (3 conference days by default).
    pub duration: f64,
    /// Number of social communities.
    pub communities: usize,
    /// Rate multiplier for same-community pairs (≥ 1).
    pub affinity: f64,
    /// Target mean pairwise contact rate (per minute), before diurnal
    /// thinning reduces it.
    pub mean_rate: f64,
    /// Pareto shape of inter-contact gaps (1 < shape ≤ 2 is heavy-tailed;
    /// large values approach periodic gaps).
    pub burst_shape: f64,
    /// Log-normal-ish spread of per-node sociability (0 = identical
    /// nodes).
    pub sociability_spread: f64,
}

impl Default for ConferenceConfig {
    fn default() -> Self {
        ConferenceConfig {
            nodes: 50,
            duration: 3.0 * DAY,
            communities: 5,
            affinity: 6.0,
            mean_rate: 0.05,
            burst_shape: 1.5,
            sociability_spread: 0.8,
        }
    }
}

/// Diurnal activity multiplier at minute `t` (period 24 h):
/// conference hours (09–18) are fully active, evenings (18–24) moderate,
/// nights (00–09) nearly silent.
fn diurnal_activity(t: f64) -> f64 {
    let hour = (t.rem_euclid(DAY)) / 60.0;
    if (9.0..18.0).contains(&hour) {
        1.0
    } else if (18.0..24.0).contains(&hour) {
        0.35
    } else {
        0.05
    }
}

impl ConferenceConfig {
    /// Generate the trace.
    ///
    /// # Panics
    /// Panics on nonsensical parameters (zero nodes/communities,
    /// non-positive rates or duration, `burst_shape ≤ 1`).
    pub fn generate(&self, rng: &mut Xoshiro256) -> ContactTrace {
        assert!(self.nodes >= 2, "need at least two attendees");
        assert!(self.communities >= 1, "need at least one community");
        assert!(self.affinity >= 1.0, "affinity must be ≥ 1");
        assert!(self.mean_rate > 0.0 && self.duration > 0.0);
        assert!(
            self.burst_shape > 1.0,
            "burst shape must exceed 1 for finite mean gaps"
        );

        // Per-node sociability: exp(spread · N(0,1)), normalized later
        // through the mean-rate calibration.
        let sociability: Vec<f64> = (0..self.nodes)
            .map(|_| (self.sociability_spread * rng.normal()).exp())
            .collect();

        // Raw pairwise weights: sociability product × community affinity.
        let n = self.nodes;
        let mut weights = vec![0.0; n * n];
        let mut total = 0.0;
        for a in 0..n {
            for b in (a + 1)..n {
                let same = a % self.communities == b % self.communities;
                let w = sociability[a] * sociability[b] * if same { self.affinity } else { 1.0 };
                weights[a * n + b] = w;
                total += w;
            }
        }
        let pairs = (n * (n - 1) / 2) as f64;
        let calibration = self.mean_rate * pairs / total;

        // Mean Pareto gap for shape k and scale x_min is x_min·k/(k−1);
        // choose x_min so the *unthinned* renewal rate matches the pair's
        // target. Diurnal thinning then reshapes arrivals in time.
        let shape = self.burst_shape;
        let mean_gap_factor = shape / (shape - 1.0);
        let mut events = Vec::new();
        for a in 0..n {
            for b in (a + 1)..n {
                let rate = weights[a * n + b] * calibration;
                if rate <= 0.0 {
                    continue;
                }
                let x_min = 1.0 / (rate * mean_gap_factor);
                let mut t = rng.range(0.0, 1.0 / rate); // random phase
                while t <= self.duration {
                    // Thin by the activity profile to create the
                    // day/night cycle.
                    if rng.bernoulli(diurnal_activity(t)) {
                        events.push(ContactEvent::new(t, a as u32, b as u32));
                    }
                    t += rng.pareto(x_min, shape);
                }
            }
        }
        ContactTrace::new(n, self.duration, events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TraceStats;

    fn quick_config() -> ConferenceConfig {
        ConferenceConfig {
            nodes: 20,
            duration: 3.0 * DAY,
            ..ConferenceConfig::default()
        }
    }

    #[test]
    fn diurnal_profile_shape() {
        assert_eq!(diurnal_activity(12.0 * 60.0), 1.0); // noon
        assert_eq!(diurnal_activity(20.0 * 60.0), 0.35); // evening
        assert_eq!(diurnal_activity(3.0 * 60.0), 0.05); // night
                                                        // Periodicity across days.
        assert_eq!(diurnal_activity(12.0 * 60.0 + 2.0 * DAY), 1.0);
    }

    #[test]
    fn trace_is_heterogeneous_and_bursty() {
        let mut rng = Xoshiro256::seed_from_u64(100);
        let trace = quick_config().generate(&mut rng);
        let stats = TraceStats::from_trace(&trace);
        assert!(
            stats.rate_cv() > 0.8,
            "conference rates should be heterogeneous (CV {})",
            stats.rate_cv()
        );
        assert!(
            stats.intercontact_cv() > 1.2,
            "inter-contacts should be bursty (CV {})",
            stats.intercontact_cv()
        );
    }

    #[test]
    fn day_night_alternation_visible() {
        let mut rng = Xoshiro256::seed_from_u64(101);
        let trace = quick_config().generate(&mut rng);
        // Compare activity at conference hours vs night across the trace.
        let hourly = trace.activity_series(60.0);
        let mut day_total = 0.0;
        let mut night_total = 0.0;
        for (h, &v) in hourly.iter().enumerate() {
            let hour_of_day = h % 24;
            if (9..18).contains(&hour_of_day) {
                day_total += v;
            } else if hour_of_day < 9 {
                night_total += v;
            }
        }
        assert!(
            day_total > 5.0 * night_total,
            "day {day_total} vs night {night_total}"
        );
    }

    #[test]
    fn same_community_pairs_meet_more() {
        let mut rng = Xoshiro256::seed_from_u64(102);
        let cfg = ConferenceConfig {
            nodes: 20,
            communities: 4,
            affinity: 8.0,
            sociability_spread: 0.0, // isolate the community effect
            duration: 10.0 * DAY,
            ..ConferenceConfig::default()
        };
        let trace = cfg.generate(&mut rng);
        let stats = TraceStats::from_trace(&trace);
        let mut same = (0.0, 0u32);
        let mut cross = (0.0, 0u32);
        for a in 0..20 {
            for b in (a + 1)..20 {
                let r = stats.rates().rate(a, b);
                if a % 4 == b % 4 {
                    same = (same.0 + r, same.1 + 1);
                } else {
                    cross = (cross.0 + r, cross.1 + 1);
                }
            }
        }
        let ratio = (same.0 / same.1 as f64) / (cross.0 / cross.1 as f64);
        assert!(
            ratio > 4.0,
            "same-community rate should dominate (ratio {ratio})"
        );
    }

    #[test]
    fn mean_rate_roughly_calibrated() {
        let mut rng = Xoshiro256::seed_from_u64(103);
        let cfg = ConferenceConfig {
            nodes: 20,
            mean_rate: 0.05,
            duration: 6.0 * DAY,
            ..ConferenceConfig::default()
        };
        let trace = cfg.generate(&mut rng);
        let stats = TraceStats::from_trace(&trace);
        // Diurnal thinning keeps ~(9·1 + 6·0.35 + 9·0.05)/24 ≈ 48% of
        // contacts; allow a wide band.
        let measured = stats.rates().mean_rate();
        assert!(
            measured > 0.01 && measured < 0.05,
            "mean rate {measured} outside plausible thinned band"
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let cfg = quick_config();
        let mut r1 = Xoshiro256::seed_from_u64(5);
        let mut r2 = Xoshiro256::seed_from_u64(5);
        assert_eq!(cfg.generate(&mut r1), cfg.generate(&mut r2));
    }

    #[test]
    #[should_panic(expected = "burst shape")]
    fn rejects_shape_below_one() {
        let mut rng = Xoshiro256::seed_from_u64(0);
        let cfg = ConferenceConfig {
            burst_shape: 0.9,
            ..quick_config()
        };
        let _ = cfg.generate(&mut rng);
    }
}
