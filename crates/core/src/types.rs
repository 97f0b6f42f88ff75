//! System descriptors.
//!
//! The paper distinguishes two node populations (§3.1): *dedicated nodes*
//! (disjoint client and server sets, e.g. throwboxes or kiosks) and *pure
//! P2P* (every node is both client and server, e.g. the VideoForU phones).
//! [`SystemModel`] captures the population shape together with the cache
//! capacity `ρ` and — for the homogeneous analysis — the pairwise contact
//! rate `μ`.

/// Shape of the client/server populations (§3.1).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Population {
    /// Disjoint client and server sets (`C ∩ S = ∅`): a managed system with
    /// special delivery nodes (buses, throwboxes, kiosks).
    Dedicated {
        /// Number of client nodes `N = |C|`.
        clients: usize,
        /// Number of server nodes `|S|`.
        servers: usize,
    },
    /// Every node is both client and server (`C = S`), the cooperative
    /// setting of the VideoForU scenario.
    PureP2p {
        /// Number of nodes `N = |C| = |S|`.
        nodes: usize,
    },
}

impl Population {
    /// Number of client nodes `|C|`.
    pub fn clients(&self) -> usize {
        match *self {
            Population::Dedicated { clients, .. } => clients,
            Population::PureP2p { nodes } => nodes,
        }
    }

    /// Number of server nodes `|S|`.
    pub fn servers(&self) -> usize {
        match *self {
            Population::Dedicated { servers, .. } => servers,
            Population::PureP2p { nodes } => nodes,
        }
    }

    /// Whether clients can self-serve from their own cache (pure P2P only).
    pub fn is_pure_p2p(&self) -> bool {
        matches!(self, Population::PureP2p { .. })
    }
}

/// Static description of a homogeneous system: population shape, per-server
/// cache capacity `ρ`, and the homogeneous pairwise meeting rate `μ`.
///
/// Heterogeneous systems carry a full rate matrix instead; see
/// [`crate::welfare::ContactRates`].
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct SystemModel {
    /// Population shape.
    pub population: Population,
    /// Cache capacity (number of item slots) per server node, `ρ ≥ 0`.
    pub cache_capacity: usize,
    /// Homogeneous pairwise contact rate `μ > 0` (meetings per unit time
    /// between any fixed client/server pair).
    pub contact_rate: f64,
}

impl SystemModel {
    /// A pure-P2P system of `nodes` nodes, each caching up to `rho` items,
    /// with homogeneous pairwise meeting rate `mu`.
    ///
    /// # Panics
    /// Panics if `mu` is not strictly positive and finite.
    pub fn pure_p2p(nodes: usize, rho: usize, mu: f64) -> Self {
        assert!(nodes > 0, "a pure-P2P system needs at least one node");
        assert!(mu > 0.0 && mu.is_finite(), "contact rate must be positive");
        SystemModel {
            population: Population::PureP2p { nodes },
            cache_capacity: rho,
            contact_rate: mu,
        }
    }

    /// A dedicated-node system with separate client and server populations.
    ///
    /// # Panics
    /// Panics if `mu` is not strictly positive and finite.
    pub fn dedicated(clients: usize, servers: usize, rho: usize, mu: f64) -> Self {
        assert!(
            clients > 0 && servers > 0,
            "dedicated systems need clients and servers"
        );
        assert!(mu > 0.0 && mu.is_finite(), "contact rate must be positive");
        SystemModel {
            population: Population::Dedicated { clients, servers },
            cache_capacity: rho,
            contact_rate: mu,
        }
    }

    /// Number of server nodes `|S|`.
    pub fn servers(&self) -> usize {
        self.population.servers()
    }

    /// Number of client nodes `|C|`.
    pub fn clients(&self) -> usize {
        self.population.clients()
    }

    /// Total number of cache slots in the system, `ρ·|S|` — the budget of
    /// the allocation problem (Eq. 6).
    pub fn total_slots(&self) -> usize {
        self.cache_capacity * self.servers()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn populations() {
        let d = Population::Dedicated {
            clients: 10,
            servers: 4,
        };
        assert_eq!(d.clients(), 10);
        assert_eq!(d.servers(), 4);
        assert!(!d.is_pure_p2p());

        let p = Population::PureP2p { nodes: 50 };
        assert_eq!(p.clients(), 50);
        assert_eq!(p.servers(), 50);
        assert!(p.is_pure_p2p());
    }

    #[test]
    fn system_model_slots() {
        let s = SystemModel::pure_p2p(50, 5, 0.05);
        assert_eq!(s.total_slots(), 250);
        assert_eq!(s.servers(), 50);
        assert_eq!(s.clients(), 50);

        let d = SystemModel::dedicated(100, 10, 3, 0.1);
        assert_eq!(d.total_slots(), 30);
        assert_eq!(d.clients(), 100);
    }

    #[test]
    #[should_panic(expected = "contact rate must be positive")]
    fn rejects_nonpositive_rate() {
        let _ = SystemModel::pure_p2p(10, 5, 0.0);
    }

    #[test]
    #[should_panic(expected = "contact rate must be positive")]
    fn rejects_nan_rate() {
        let _ = SystemModel::dedicated(10, 5, 1, f64::NAN);
    }
}
