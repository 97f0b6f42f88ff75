//! Content popularity and per-node demand profiles (§3.3).
//!
//! Demand for item `i` arrives at total rate `d_i`; node `n` originates a
//! fraction `π_{i,n}` of it (so node `n` requests item `i` at rate
//! `d_i·π_{i,n}`). The paper's simulations use a Pareto (Zipf-like)
//! popularity `d_i ∝ i^{−ω}` with `ω = 1` and a uniform profile
//! `π_{i,n} = 1/|C|`; community-clustered profiles model the "clustered and
//! evolving demands" extension mentioned in §7.

use crate::rng::{AliasTable, Xoshiro256};

/// A normalized content-popularity distribution over a catalog of items.
#[derive(Clone, Debug, PartialEq)]
pub struct Popularity {
    /// Probability of each item; sums to 1.
    weights: Vec<f64>,
}

impl Popularity {
    /// Pareto/Zipf popularity `p_i ∝ (i+1)^{−ω}` over `items` items — the
    /// paper's default with `ω = 1`.
    ///
    /// # Panics
    /// Panics if `items == 0` or `ω` is not finite.
    pub fn pareto(items: usize, omega: f64) -> Self {
        assert!(items > 0, "catalog must not be empty");
        assert!(omega.is_finite(), "ω must be finite");
        let raw: Vec<f64> = (1..=items).map(|rank| (rank as f64).powf(-omega)).collect();
        Popularity::from_weights(raw)
    }

    /// Uniform popularity `p_i = 1/|I|`.
    pub fn uniform(items: usize) -> Self {
        assert!(items > 0, "catalog must not be empty");
        Popularity {
            weights: vec![1.0 / items as f64; items],
        }
    }

    /// Geometrically decaying popularity `p_i ∝ r^i`, `0 < r ≤ 1`.
    pub fn geometric(items: usize, ratio: f64) -> Self {
        assert!(items > 0, "catalog must not be empty");
        assert!(ratio > 0.0 && ratio <= 1.0, "ratio must be in (0, 1]");
        let raw: Vec<f64> = (0..items).map(|i| ratio.powi(i as i32)).collect();
        Popularity::from_weights(raw)
    }

    /// Arbitrary non-negative weights, normalized to sum to one.
    ///
    /// # Panics
    /// Panics on empty/negative/non-finite weights or an all-zero sum.
    pub fn from_weights(raw: Vec<f64>) -> Self {
        assert!(!raw.is_empty(), "catalog must not be empty");
        let total: f64 = raw
            .iter()
            .map(|&w| {
                assert!(w >= 0.0 && w.is_finite(), "weights must be finite and ≥ 0");
                w
            })
            .sum();
        assert!(total > 0.0, "popularity weights must not all be zero");
        Popularity {
            weights: raw.into_iter().map(|w| w / total).collect(),
        }
    }

    /// Number of items in the catalog.
    pub fn items(&self) -> usize {
        self.weights.len()
    }

    /// Probability of item `i`.
    pub fn probability(&self, i: usize) -> f64 {
        self.weights[i]
    }

    /// Turn the distribution into absolute demand rates with a given total
    /// request rate (requests per unit time across the whole system).
    pub fn demand_rates(&self, total_rate: f64) -> DemandRates {
        assert!(total_rate > 0.0 && total_rate.is_finite());
        DemandRates {
            rates: self.weights.iter().map(|p| p * total_rate).collect(),
        }
    }

    /// An O(1) sampler of item indices distributed according to popularity.
    pub fn sampler(&self) -> AliasTable {
        AliasTable::new(&self.weights)
    }
}

/// Absolute demand rates `d_i` (requests per unit time per item,
/// system-wide).
#[derive(Clone, Debug, PartialEq)]
pub struct DemandRates {
    rates: Vec<f64>,
}

impl DemandRates {
    /// Wrap raw rates.
    ///
    /// # Panics
    /// Panics on empty input or non-finite/negative rates.
    pub fn new(rates: Vec<f64>) -> Self {
        assert!(!rates.is_empty(), "demand rates must not be empty");
        for &d in &rates {
            assert!(
                d >= 0.0 && d.is_finite(),
                "demand rates must be finite and ≥ 0"
            );
        }
        DemandRates { rates }
    }

    /// Number of items.
    pub fn items(&self) -> usize {
        self.rates.len()
    }

    /// Rate of item `i`.
    pub fn rate(&self, i: usize) -> f64 {
        self.rates[i]
    }

    /// All rates.
    pub fn rates(&self) -> &[f64] {
        &self.rates
    }

    /// Total request rate `Σ_i d_i`.
    pub fn total(&self) -> f64 {
        self.rates.iter().sum()
    }
}

/// Per-node demand profile `π_{i,n}`: how the demand of each item is split
/// across client nodes. Row `i` sums to 1 over nodes.
#[derive(Clone, Debug, PartialEq)]
pub struct DemandProfile {
    items: usize,
    nodes: usize,
    /// Row-major `items × nodes`.
    pi: Vec<f64>,
}

impl DemandProfile {
    /// The paper's default: all items equally popular everywhere,
    /// `π_{i,n} = 1/|C|`.
    pub fn uniform(items: usize, nodes: usize) -> Self {
        assert!(items > 0 && nodes > 0);
        DemandProfile {
            items,
            nodes,
            pi: vec![1.0 / nodes as f64; items * nodes],
        }
    }

    /// Community-clustered profile: nodes are split round-robin into
    /// `communities` groups; item `i` is preferentially (weight
    /// `affinity ≥ 1`) demanded by community `i mod communities`.
    ///
    /// Models the "different populations of nodes have different popularity
    /// profiles" remark of §3.3 and the clustered-demand extension of §7.
    pub fn clustered(items: usize, nodes: usize, communities: usize, affinity: f64) -> Self {
        assert!(items > 0 && nodes > 0 && communities > 0);
        assert!(affinity >= 1.0, "affinity must be ≥ 1");
        let mut pi = vec![0.0; items * nodes];
        for i in 0..items {
            let home = i % communities;
            let mut row_total = 0.0;
            for n in 0..nodes {
                let w = if n % communities == home {
                    affinity
                } else {
                    1.0
                };
                pi[i * nodes + n] = w;
                row_total += w;
            }
            for n in 0..nodes {
                pi[i * nodes + n] /= row_total;
            }
        }
        DemandProfile { items, nodes, pi }
    }

    /// Number of items.
    pub fn items(&self) -> usize {
        self.items
    }

    /// Number of client nodes.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// `π_{i,n}`.
    pub fn pi(&self, item: usize, node: usize) -> f64 {
        self.pi[item * self.nodes + node]
    }

    /// Row of `π_{i,·}` for one item.
    pub fn row(&self, item: usize) -> &[f64] {
        &self.pi[item * self.nodes..(item + 1) * self.nodes]
    }

    /// Sample the originating node for a request of item `i`.
    pub fn sample_origin(&self, item: usize, rng: &mut Xoshiro256) -> usize {
        let row = self.row(item);
        let mut u = rng.f64();
        for (n, &p) in row.iter().enumerate() {
            u -= p;
            if u <= 0.0 {
                return n;
            }
        }
        self.nodes - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pareto_is_normalized_and_decreasing() {
        let p = Popularity::pareto(50, 1.0);
        assert_eq!(p.items(), 50);
        let total: f64 = p.weights.iter().sum();
        assert!((total - 1.0).abs() < 1e-12);
        for i in 1..50 {
            assert!(p.probability(i) < p.probability(i - 1));
        }
        // ω = 1 ⇒ p_0 / p_9 = 10.
        assert!((p.probability(0) / p.probability(9) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn pareto_omega_zero_is_uniform() {
        let p = Popularity::pareto(10, 0.0);
        let u = Popularity::uniform(10);
        for i in 0..10 {
            assert!((p.probability(i) - u.probability(i)).abs() < 1e-12);
        }
    }

    #[test]
    fn geometric_decays() {
        let p = Popularity::geometric(5, 0.5);
        assert!((p.probability(0) / p.probability(1) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn demand_rates_scale() {
        let d = Popularity::pareto(10, 1.0).demand_rates(5.0);
        assert!((d.total() - 5.0).abs() < 1e-12);
        assert_eq!(d.items(), 10);
        assert!(d.rate(0) > d.rate(9));
    }

    #[test]
    fn sampler_matches_popularity() {
        let p = Popularity::pareto(5, 1.0);
        let table = p.sampler();
        let mut rng = Xoshiro256::seed_from_u64(17);
        let n = 200_000;
        let mut counts = [0u32; 5];
        for _ in 0..n {
            counts[table.sample(&mut rng)] += 1;
        }
        for (i, &count) in counts.iter().enumerate() {
            let expect = n as f64 * p.probability(i);
            assert!(
                (count as f64 - expect).abs() < 6.0 * expect.sqrt(),
                "item {i}: {count} vs {expect}"
            );
        }
    }

    #[test]
    fn uniform_profile_rows_sum_to_one() {
        let prof = DemandProfile::uniform(3, 7);
        for i in 0..3 {
            let s: f64 = prof.row(i).iter().sum();
            assert!((s - 1.0).abs() < 1e-12);
            assert!((prof.pi(i, 0) - 1.0 / 7.0).abs() < 1e-12);
        }
    }

    #[test]
    fn clustered_profile_prefers_home_community() {
        let prof = DemandProfile::clustered(4, 12, 4, 5.0);
        // Item 0's home community is nodes {0, 4, 8}.
        assert!(prof.pi(0, 0) > prof.pi(0, 1));
        assert!((prof.pi(0, 0) - prof.pi(0, 4)).abs() < 1e-12);
        for i in 0..4 {
            let s: f64 = prof.row(i).iter().sum();
            assert!((s - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn clustered_affinity_one_is_uniform() {
        let a = DemandProfile::clustered(3, 6, 2, 1.0);
        let b = DemandProfile::uniform(3, 6);
        for i in 0..3 {
            for n in 0..6 {
                assert!((a.pi(i, n) - b.pi(i, n)).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn sample_origin_distribution() {
        let prof = DemandProfile::clustered(1, 4, 2, 9.0);
        let mut rng = Xoshiro256::seed_from_u64(4);
        let n = 100_000;
        let mut counts = [0u32; 4];
        for _ in 0..n {
            counts[prof.sample_origin(0, &mut rng)] += 1;
        }
        for (node, &count) in counts.iter().enumerate() {
            let expect = n as f64 * prof.pi(0, node);
            assert!(
                (count as f64 - expect).abs() < 6.0 * expect.sqrt(),
                "node {node}: {count} vs {expect}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "must not be empty")]
    fn rejects_empty_catalog() {
        let _ = Popularity::pareto(0, 1.0);
    }

    #[test]
    #[should_panic(expected = "finite and ≥ 0")]
    fn rejects_negative_rate() {
        let _ = DemandRates::new(vec![1.0, -0.5]);
    }
}
