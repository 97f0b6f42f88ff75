//! Replica-count allocations: `x_i = Σ_m x_{i,m}`.
//!
//! Under homogeneous contacts the social welfare depends on the allocation
//! only through these counts (Theorem 2), so the solvers work at this level
//! and only materialize a full matrix when the simulator needs concrete
//! placements.

/// An item-indexed vector of replica counts with the system's feasibility
/// bounds attached (`0 ≤ x_i ≤ |S|`, `Σ_i x_i ≤ ρ|S|`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReplicaCounts {
    counts: Vec<u32>,
    servers: usize,
}

impl ReplicaCounts {
    /// An all-zero allocation over `items` items for `servers` servers.
    pub fn zero(items: usize, servers: usize) -> Self {
        ReplicaCounts {
            counts: vec![0; items],
            servers,
        }
    }

    /// Wrap explicit counts.
    ///
    /// # Panics
    /// Panics if any count exceeds the number of servers.
    pub fn new(counts: Vec<u32>, servers: usize) -> Self {
        for (i, &c) in counts.iter().enumerate() {
            assert!(
                c as usize <= servers,
                "item {i} has {c} replicas but only {servers} servers exist"
            );
        }
        ReplicaCounts { counts, servers }
    }

    /// Number of items.
    pub fn items(&self) -> usize {
        self.counts.len()
    }

    /// Number of servers `|S|` (the per-item cap).
    pub fn servers(&self) -> usize {
        self.servers
    }

    /// The counts as a slice.
    pub fn counts(&self) -> &[u32] {
        &self.counts
    }

    /// Count for item `i`.
    pub fn count(&self, i: usize) -> u32 {
        self.counts[i]
    }

    /// Total replicas `Σ_i x_i`.
    pub fn total(&self) -> u64 {
        self.counts.iter().map(|&c| c as u64).sum()
    }

    /// Add one replica of item `i`.
    ///
    /// # Panics
    /// Panics if item `i` is already on every server.
    pub fn add(&mut self, i: usize) {
        assert!(
            (self.counts[i] as usize) < self.servers,
            "item {i} already replicated on all {} servers",
            self.servers
        );
        self.counts[i] += 1;
    }

    /// Remove one replica of item `i`.
    ///
    /// # Panics
    /// Panics if item `i` has no replicas.
    pub fn remove(&mut self, i: usize) {
        assert!(self.counts[i] > 0, "item {i} has no replicas to remove");
        self.counts[i] -= 1;
    }

    /// Fraction of the total slot budget in use.
    pub fn utilization(&self, rho: usize) -> f64 {
        let budget = (rho * self.servers) as f64;
        if budget == 0.0 {
            return 0.0;
        }
        self.total() as f64 / budget
    }

    /// Number of items with zero replicas (lost content).
    pub fn missing_items(&self) -> usize {
        self.counts.iter().filter(|&&c| c == 0).count()
    }

    /// Counts as `f64` (for welfare evaluation).
    pub fn as_f64(&self) -> Vec<f64> {
        self.counts.iter().map(|&c| c as f64).collect()
    }
}

impl std::ops::Index<usize> for ReplicaCounts {
    type Output = u32;
    fn index(&self, i: usize) -> &u32 {
        &self.counts[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_and_add_remove() {
        let mut x = ReplicaCounts::zero(3, 5);
        assert_eq!(x.total(), 0);
        assert_eq!(x.missing_items(), 3);
        x.add(0);
        x.add(0);
        x.add(2);
        assert_eq!(x.count(0), 2);
        assert_eq!(x[2], 1);
        assert_eq!(x.total(), 3);
        assert_eq!(x.missing_items(), 1);
        x.remove(0);
        assert_eq!(x.count(0), 1);
    }

    #[test]
    fn utilization_is_the_budget_share() {
        let x = ReplicaCounts::new(vec![5, 3, 2], 5);
        assert!((x.utilization(2) - 1.0).abs() < 1e-12);
        assert!((x.utilization(4) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn zero_budget_utilization() {
        let x = ReplicaCounts::zero(2, 0);
        assert_eq!(x.utilization(5), 0.0);
    }

    #[test]
    fn as_f64_roundtrip() {
        let x = ReplicaCounts::new(vec![1, 4], 10);
        assert_eq!(x.as_f64(), vec![1.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "only 2 servers exist")]
    fn rejects_count_above_servers() {
        let _ = ReplicaCounts::new(vec![3], 2);
    }

    #[test]
    #[should_panic(expected = "already replicated on all")]
    fn add_beyond_servers_panics() {
        let mut x = ReplicaCounts::new(vec![2], 2);
        x.add(0);
    }

    #[test]
    #[should_panic(expected = "no replicas to remove")]
    fn remove_from_zero_panics() {
        let mut x = ReplicaCounts::zero(1, 2);
        x.remove(0);
    }
}
