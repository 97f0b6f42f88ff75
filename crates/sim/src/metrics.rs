//! Per-trial measurements.
//!
//! Two utility views, matching the paper's Fig. 3:
//!
//! * **observed utility** — the gain `h(wait)` actually recorded at each
//!   fulfillment, binned over time and summarized as a post-warm-up rate
//!   (gain per minute). This is what Fig. 3(b), Fig. 4, Fig. 5 and Fig. 6
//!   plot;
//! * **expected utility** — `U(x(t))` evaluated on the *current* replica
//!   counts under the homogeneous-welfare approximation, snapshotted once
//!   per bin (Fig. 3(a)).

use impatience_core::demand::DemandRates;
use impatience_core::types::SystemModel;
use impatience_core::utility::DelayUtility;
use impatience_core::welfare::social_welfare_homogeneous;
use impatience_json::Json;

use crate::policy::Fulfillment;

/// Encode an `f64` as its 16-hex-digit bit pattern — the checkpoint
/// codec's float representation. Decimal JSON floats cannot round-trip
/// NaN (the [`Json`] writer emits `null` for non-finite values) and risk
/// last-ulp drift; the bit pattern is exact by construction.
pub(crate) fn f64_to_hex(v: f64) -> String {
    format!("{:016x}", v.to_bits())
}

/// Decode [`f64_to_hex`]'s output.
pub(crate) fn f64_from_hex(s: &str) -> Result<f64, String> {
    if s.len() != 16 {
        return Err(format!(
            "expected a 16-hex-digit float bit pattern, got {s:?}"
        ));
    }
    u64::from_str_radix(s, 16)
        .map(f64::from_bits)
        .map_err(|e| format!("bad float bit pattern {s:?}: {e}"))
}

/// Measurements collected over one simulation trial.
#[derive(Clone, Debug)]
pub struct Metrics {
    bin: f64,
    duration: f64,
    /// Σ h(wait) of fulfillments per bin.
    observed_gain: Vec<f64>,
    /// Fulfillment count per bin.
    fulfilled: Vec<u64>,
    /// `U(x(t))` snapshot at each bin start (NaN until recorded).
    expected_utility: Vec<f64>,
    /// Replica counts snapshot at each bin start.
    replica_series: Vec<Vec<u32>>,
    /// Total requests created.
    pub requests_created: u64,
    /// Requests served instantly from the requester's own cache.
    pub immediate_hits: u64,
    /// Outstanding (never fulfilled) requests at the end of the trial.
    pub unfulfilled: u64,
    /// Replication transmissions performed (energy proxy).
    pub transmissions: u64,
    /// Mandates created (QCR only).
    pub mandates_created: u64,
    /// Mandates whose creation hit the per-fulfillment cap (QCR only).
    pub mandate_cap_hits: u64,
    /// Contacts suppressed by fault injection (drops, churn, truncation).
    pub contacts_dropped: u64,
    /// Node down-transitions injected by churn.
    pub node_outages: u64,
    /// Cache slots erased by injected slot failures.
    pub cache_faults: u64,
}

impl Metrics {
    /// Create metrics for a trial of the given duration and bin width.
    pub fn new(duration: f64, bin: f64) -> Self {
        assert!(duration > 0.0 && bin > 0.0);
        let bins = (duration / bin).ceil() as usize;
        Metrics {
            bin,
            duration,
            observed_gain: vec![0.0; bins],
            fulfilled: vec![0; bins],
            expected_utility: vec![f64::NAN; bins],
            replica_series: vec![Vec::new(); bins],
            requests_created: 0,
            immediate_hits: 0,
            unfulfilled: 0,
            transmissions: 0,
            mandates_created: 0,
            mandate_cap_hits: 0,
            contacts_dropped: 0,
            node_outages: 0,
            cache_faults: 0,
        }
    }

    /// Bin width.
    pub fn bin(&self) -> f64 {
        self.bin
    }

    /// Number of bins.
    pub fn bins(&self) -> usize {
        self.observed_gain.len()
    }

    fn bin_of(&self, t: f64) -> usize {
        ((t / self.bin) as usize).min(self.observed_gain.len() - 1)
    }

    /// Record a fulfillment at time `t` with the given gain.
    pub fn record_fulfillment(&mut self, t: f64, gain: f64) {
        let b = self.bin_of(t);
        self.observed_gain[b] += gain;
        self.fulfilled[b] += 1;
    }

    /// Book a request that arrives at `t`; `hit` when its origin's own
    /// cache serves it on the spot, with gain `h(0⁺)`.
    #[inline]
    pub(crate) fn record_request(&mut self, t: f64, hit: bool, utility: &dyn DelayUtility) {
        self.requests_created += 1;
        if hit {
            self.immediate_hits += 1;
            self.record_fulfillment(t, utility.h_zero());
        }
    }

    /// Book the fulfillments of a meeting at `t`, in order: one batched
    /// `h` over their waits, then one gain each. `waits` and `gains` are
    /// the caller's reusable buffers.
    #[inline]
    pub(crate) fn record_meeting(
        &mut self,
        t: f64,
        utility: &dyn DelayUtility,
        fulfilled: &[Fulfillment],
        waits: &mut Vec<f64>,
        gains: &mut Vec<f64>,
    ) {
        waits.clear();
        waits.extend(fulfilled.iter().map(|f| f.wait));
        gains.clear();
        utility.h_batch(waits, gains);
        for &gain in gains.iter() {
            self.record_fulfillment(t, gain);
        }
    }

    /// Settle, at `t`, a request still open `age` after its creation (the
    /// horizon, or a deadline); returns the age booked, at least the
    /// smallest positive float.
    ///
    /// For utilities bounded below (step, exponential: h(∞) finite) the
    /// pessimistic h(∞) is booked — exact for never-fulfillable requests,
    /// slightly conservative otherwise. For unbounded waiting costs (power
    /// α < 1) the cost already accrued, h(age), is booked: h(∞) = −∞
    /// cannot be, and plain censoring would flatter item-starving
    /// allocations like DOM, which never serve the catalog's tail at all.
    #[inline]
    pub(crate) fn settle(&mut self, t: f64, utility: &dyn DelayUtility, age: f64) -> f64 {
        let age = age.max(f64::MIN_POSITIVE);
        let h_inf = utility.h_infinity();
        let gain = if h_inf.is_finite() {
            h_inf
        } else {
            utility.h(age)
        };
        let b = self.bin_of(t);
        self.observed_gain[b] += gain;
        age
    }

    /// Record a bin-start snapshot: expected utility of the current
    /// allocation (homogeneous approximation) and the replica counts.
    pub fn record_snapshot(
        &mut self,
        t: f64,
        replicas: &[u32],
        system: &SystemModel,
        demand: &DemandRates,
        utility: &dyn DelayUtility,
    ) {
        let b = self.bin_of(t);
        let xs: Vec<f64> = replicas.iter().map(|&r| r as f64).collect();
        self.expected_utility[b] = social_welfare_homogeneous(system, demand, utility, &xs);
        self.replica_series[b] = replicas.to_vec();
    }

    /// Observed gain rate per bin (gain per minute).
    pub fn observed_rate_series(&self) -> Vec<f64> {
        self.observed_gain.iter().map(|g| g / self.bin).collect()
    }

    /// Expected-utility snapshots (NaN where not recorded).
    pub fn expected_utility_series(&self) -> &[f64] {
        &self.expected_utility
    }

    /// Replica-count snapshot of one item over time.
    pub fn replica_series_of(&self, item: usize) -> Vec<u32> {
        self.replica_series
            .iter()
            .map(|snap| snap.get(item).copied().unwrap_or(0))
            .collect()
    }

    /// Total fulfillments.
    pub fn fulfillments(&self) -> u64 {
        self.fulfilled.iter().sum()
    }

    /// Average observed gain rate (gain per minute) over the bins after
    /// the warm-up fraction — the scalar the Fig. 4–6 comparisons use.
    ///
    /// # Panics
    /// Panics unless `warmup_fraction` is in `[0, 1)`: a fraction of 1 or
    /// more would leave no measurement window. (Earlier revisions silently
    /// clamped to the final bin, reporting a statistic over one bin while
    /// appearing to honor the requested warm-up.)
    pub fn average_observed_rate(&self, warmup_fraction: f64) -> f64 {
        let skip = self.warmup_bins(warmup_fraction);
        let used = &self.observed_gain[skip..];
        let time = used.len() as f64 * self.bin;
        if time == 0.0 {
            return 0.0;
        }
        // The final bin may be partial; negligible for the long runs used.
        used.iter().sum::<f64>() / time.min(self.duration)
    }

    /// Encode every field — including NaN snapshot slots — for the
    /// campaign checkpoint. [`Metrics::from_json`] restores the value
    /// bit-for-bit.
    pub fn to_json(&self) -> Json {
        let hexes = |vs: &[f64]| Json::Array(vs.iter().map(|&v| f64_to_hex(v).into()).collect());
        Json::obj([
            ("bin", Json::from(f64_to_hex(self.bin))),
            ("duration", f64_to_hex(self.duration).into()),
            ("observed_gain", hexes(&self.observed_gain)),
            (
                "fulfilled",
                Json::Array(self.fulfilled.iter().map(|&v| v.into()).collect()),
            ),
            ("expected_utility", hexes(&self.expected_utility)),
            (
                "replica_series",
                Json::Array(
                    self.replica_series
                        .iter()
                        .map(|snap| Json::Array(snap.iter().map(|&v| v.into()).collect()))
                        .collect(),
                ),
            ),
            ("requests_created", self.requests_created.into()),
            ("immediate_hits", self.immediate_hits.into()),
            ("unfulfilled", self.unfulfilled.into()),
            ("transmissions", self.transmissions.into()),
            ("mandates_created", self.mandates_created.into()),
            ("mandate_cap_hits", self.mandate_cap_hits.into()),
            ("contacts_dropped", self.contacts_dropped.into()),
            ("node_outages", self.node_outages.into()),
            ("cache_faults", self.cache_faults.into()),
        ])
    }

    /// Decode [`Metrics::to_json`]'s output.
    pub fn from_json(v: &Json) -> Result<Metrics, String> {
        let hex = |key: &str| -> Result<f64, String> {
            v.get(key)
                .and_then(Json::as_str)
                .ok_or_else(|| format!("metrics: missing hex field {key:?}"))
                .and_then(f64_from_hex)
        };
        let hex_array = |key: &str| -> Result<Vec<f64>, String> {
            v.get(key)
                .and_then(Json::as_array)
                .ok_or_else(|| format!("metrics: missing array {key:?}"))?
                .iter()
                .map(|e| {
                    e.as_str()
                        .ok_or_else(|| format!("metrics: non-string entry in {key:?}"))
                        .and_then(f64_from_hex)
                })
                .collect()
        };
        let count = |key: &str| -> Result<u64, String> {
            v.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("metrics: missing counter {key:?}"))
        };
        let fulfilled = v
            .get("fulfilled")
            .and_then(Json::as_array)
            .ok_or("metrics: missing array \"fulfilled\"")?
            .iter()
            .map(|e| e.as_u64().ok_or("metrics: non-integer fulfilled entry"))
            .collect::<Result<Vec<u64>, _>>()?;
        let replica_series = v
            .get("replica_series")
            .and_then(Json::as_array)
            .ok_or("metrics: missing array \"replica_series\"")?
            .iter()
            .map(|snap| {
                snap.as_array()
                    .ok_or_else(|| "metrics: non-array replica snapshot".to_string())?
                    .iter()
                    .map(|e| {
                        e.as_u64()
                            .and_then(|n| u32::try_from(n).ok())
                            .ok_or_else(|| "metrics: bad replica count".to_string())
                    })
                    .collect::<Result<Vec<u32>, String>>()
            })
            .collect::<Result<Vec<Vec<u32>>, String>>()?;
        let m = Metrics {
            bin: hex("bin")?,
            duration: hex("duration")?,
            observed_gain: hex_array("observed_gain")?,
            fulfilled,
            expected_utility: hex_array("expected_utility")?,
            replica_series,
            requests_created: count("requests_created")?,
            immediate_hits: count("immediate_hits")?,
            unfulfilled: count("unfulfilled")?,
            transmissions: count("transmissions")?,
            mandates_created: count("mandates_created")?,
            mandate_cap_hits: count("mandate_cap_hits")?,
            contacts_dropped: count("contacts_dropped")?,
            node_outages: count("node_outages")?,
            cache_faults: count("cache_faults")?,
        };
        if !(m.bin > 0.0 && m.duration > 0.0) {
            return Err("metrics: non-positive bin or duration".to_string());
        }
        let bins = m.observed_gain.len();
        if m.fulfilled.len() != bins
            || m.expected_utility.len() != bins
            || m.replica_series.len() != bins
        {
            return Err("metrics: series lengths disagree".to_string());
        }
        Ok(m)
    }

    /// Fold another fragment of the same trial into this one — the
    /// sharded engine's reduction, called once per shard/lane in a fixed
    /// order so the f64 summation order (and hence every bit of the
    /// result) is independent of the worker count.
    ///
    /// Binned series sum element-wise and counters add. Snapshot series
    /// (expected utility, replica counts) are *global* facts the sharded
    /// engine records serially on the merged state, so `other` must not
    /// carry any — fragments never call [`Metrics::record_snapshot`].
    ///
    /// # Panics
    /// Panics if the two metrics disagree on `(duration, bin)` or if
    /// `other` carries snapshots.
    pub fn merge(&mut self, other: &Metrics) {
        assert!(
            self.bin.to_bits() == other.bin.to_bits()
                && self.duration.to_bits() == other.duration.to_bits(),
            "cannot merge metrics with different binning"
        );
        assert!(
            other.expected_utility.iter().all(|v| v.is_nan())
                && other.replica_series.iter().all(Vec::is_empty),
            "fragments must not carry snapshots (recorded globally)"
        );
        for (a, b) in self.observed_gain.iter_mut().zip(&other.observed_gain) {
            *a += b;
        }
        for (a, b) in self.fulfilled.iter_mut().zip(&other.fulfilled) {
            *a += b;
        }
        self.requests_created += other.requests_created;
        self.immediate_hits += other.immediate_hits;
        self.unfulfilled += other.unfulfilled;
        self.transmissions += other.transmissions;
        self.mandates_created += other.mandates_created;
        self.mandate_cap_hits += other.mandate_cap_hits;
        self.contacts_dropped += other.contacts_dropped;
        self.node_outages += other.node_outages;
        self.cache_faults += other.cache_faults;
    }

    /// Bins to skip for a warm-up fraction; rejects fractions that would
    /// consume the whole measurement window.
    fn warmup_bins(&self, warmup_fraction: f64) -> usize {
        assert!(
            (0.0..1.0).contains(&warmup_fraction),
            "warmup_fraction {warmup_fraction} outside [0, 1): no bins would remain"
        );
        // floor(bins·f) with f < 1 is at most bins − 1, so at least one
        // bin always survives.
        (self.bins() as f64 * warmup_fraction).floor() as usize
    }
}

/// Normalized loss of utility against an optimal value, in percent:
/// `100·(u − u_opt)/|u_opt|` — the y-axis of Figs. 4–6 (≤ 0 when the
/// optimum wins).
pub fn normalized_loss_percent(u: f64, u_opt: f64) -> f64 {
    if u_opt == 0.0 {
        return f64::NAN;
    }
    100.0 * (u - u_opt) / u_opt.abs()
}

#[cfg(test)]
mod tests {
    use super::*;
    use impatience_core::demand::Popularity;
    use impatience_core::utility::Step;

    #[test]
    fn binning_and_rates() {
        let mut m = Metrics::new(100.0, 10.0);
        assert_eq!(m.bins(), 10);
        m.record_fulfillment(5.0, 1.0);
        m.record_fulfillment(5.5, 1.0);
        m.record_fulfillment(95.0, 0.5);
        m.record_fulfillment(100.0, 0.5); // clamped into last bin
        let rates = m.observed_rate_series();
        assert!((rates[0] - 0.2).abs() < 1e-12);
        assert!((rates[9] - 0.1).abs() < 1e-12);
        assert_eq!(m.fulfillments(), 4);
    }

    #[test]
    fn average_rate_with_warmup() {
        let mut m = Metrics::new(100.0, 10.0);
        // All gain in the first half.
        for t in [1.0, 11.0, 21.0, 31.0, 41.0] {
            m.record_fulfillment(t, 2.0);
        }
        let full = m.average_observed_rate(0.0);
        assert!((full - 0.1).abs() < 1e-12);
        let late = m.average_observed_rate(0.5);
        assert_eq!(late, 0.0);
    }

    #[test]
    fn warmup_just_below_one_keeps_the_final_bin() {
        let mut m = Metrics::new(100.0, 10.0);
        m.record_fulfillment(95.0, 3.0); // lands in the final bin
        let rate = m.average_observed_rate(0.999);
        assert!(
            (rate - 0.3).abs() < 1e-12,
            "final bin alone: 3.0/10min, got {rate}"
        );
    }

    #[test]
    #[should_panic(expected = "outside [0, 1)")]
    fn warmup_of_one_is_rejected_not_clamped() {
        // Regression: warmup_fraction = 1.0 used to clamp to the final
        // bin, silently reporting a one-bin statistic as if it honored
        // the requested warm-up.
        let m = Metrics::new(100.0, 10.0);
        let _ = m.average_observed_rate(1.0);
    }

    #[test]
    fn snapshots_record_welfare() {
        let mut m = Metrics::new(100.0, 50.0);
        let system = SystemModel::pure_p2p(10, 2, 0.05);
        let demand = Popularity::uniform(3).demand_rates(1.0);
        let u = Step::new(5.0);
        m.record_snapshot(0.0, &[2, 1, 0], &system, &demand, &u);
        m.record_snapshot(50.0, &[1, 1, 1], &system, &demand, &u);
        let series = m.expected_utility_series();
        assert!(series[0].is_finite());
        assert!(series[1].is_finite());
        assert_eq!(m.replica_series_of(0), vec![2, 1]);
        assert_eq!(m.replica_series_of(2), vec![0, 1]);
    }

    #[test]
    fn json_round_trip_is_bit_exact_including_nan() {
        let mut m = Metrics::new(100.0, 50.0);
        let system = SystemModel::pure_p2p(10, 2, 0.05);
        let demand = Popularity::uniform(3).demand_rates(1.0);
        let u = Step::new(5.0);
        m.record_fulfillment(5.0, 0.1 + 0.2); // exercise non-representable sums
        m.record_snapshot(0.0, &[2, 1, 0], &system, &demand, &u);
        // Bin 1's snapshot is never recorded: stays NaN.
        m.requests_created = 7;
        m.contacts_dropped = 3;
        m.cache_faults = 1;

        let encoded = m.to_json().to_string();
        let back = Metrics::from_json(&impatience_json::Json::parse(&encoded).unwrap()).unwrap();
        assert_eq!(back.observed_gain.len(), m.observed_gain.len());
        for (a, b) in back.observed_gain.iter().zip(&m.observed_gain) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        for (a, b) in back.expected_utility.iter().zip(&m.expected_utility) {
            assert_eq!(a.to_bits(), b.to_bits(), "NaN must survive the round trip");
        }
        assert!(back.expected_utility[1].is_nan());
        assert_eq!(back.fulfilled, m.fulfilled);
        assert_eq!(back.replica_series, m.replica_series);
        assert_eq!(back.requests_created, 7);
        assert_eq!(back.contacts_dropped, 3);
        assert_eq!(back.cache_faults, 1);
        assert_eq!(back.bin.to_bits(), m.bin.to_bits());
    }

    #[test]
    fn from_json_rejects_malformed_input() {
        let m = Metrics::new(100.0, 50.0);
        let good = m.to_json();
        // Truncate a series: lengths disagree.
        let mut bad = good.clone();
        if let Json::Object(pairs) = &mut bad {
            for (k, v) in pairs.iter_mut() {
                if k == "fulfilled" {
                    *v = Json::Array(vec![]);
                }
            }
        }
        assert!(Metrics::from_json(&bad).is_err());
        assert!(Metrics::from_json(&Json::Null).is_err());
        assert!(f64_from_hex("xyz").is_err());
        assert!(f64_from_hex("00000000000000000").is_err());
    }

    #[test]
    fn normalized_loss() {
        assert!((normalized_loss_percent(0.9, 1.0) + 10.0).abs() < 1e-9);
        assert!((normalized_loss_percent(-1.1, -1.0) + 10.0).abs() < 1e-9);
        assert!(normalized_loss_percent(1.0, 0.0).is_nan());
        // A utility better than "optimal" yields a positive value (can
        // happen on traces where OPT is only memoryless-approximate).
        assert!(normalized_loss_percent(1.1, 1.0) > 0.0);
    }
}
