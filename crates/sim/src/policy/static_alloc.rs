//! Fixed-allocation policies — the perfect-control-channel competitors.
//!
//! §6.1: the OPT/UNI/SQRT/PROP/DOM heuristics "have access to a perfect
//! control-channel and the ability to set the cache precisely and without
//! restriction to their desired allocation". Concretely: caches are
//! pinned to the target allocation at trial start (a fresh random
//! materialization of the replica counts each trial, by
//! [`PolicyKind::place`](crate::policy::PolicyKind::place)) and never
//! change.

use impatience_core::rng::Xoshiro256;

use crate::metrics::Metrics;
use crate::policy::{Fulfillment, ReplicationPolicy};
use crate::state::SimState;

/// A pinned allocation's meetings: they fulfill requests and move nothing.
pub struct StaticAllocation;

impl ReplicationPolicy for StaticAllocation {
    #[allow(clippy::too_many_arguments)]
    fn after_contact(
        &mut self,
        _t: f64,
        _a: usize,
        _b: usize,
        _state: &mut SimState,
        _fulfilled: &[Fulfillment],
        _metrics: &mut Metrics,
        _rng: &mut Xoshiro256,
    ) {
        // Perfect control channel: the allocation is already where it
        // should be; meetings only fulfill requests.
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::PolicyKind;
    use impatience_core::allocation::ReplicaCounts;

    fn pinned(counts: ReplicaCounts) -> PolicyKind {
        PolicyKind::Static {
            label: "PINNED",
            counts,
        }
    }

    #[test]
    fn place_pins_exact_counts() {
        let mut rng = Xoshiro256::seed_from_u64(1);
        let counts = ReplicaCounts::new(vec![3, 2, 0, 1], 4);
        let mut state = SimState::new(4, 4, 2);
        pinned(counts).place(&mut state, &mut rng);
        assert_eq!(state.replicas, vec![3, 2, 0, 1]);
    }

    #[test]
    fn contacts_do_not_move_content() {
        let mut rng = Xoshiro256::seed_from_u64(2);
        let counts = ReplicaCounts::new(vec![2, 2], 4);
        let mut state = SimState::new(4, 2, 1);
        pinned(counts).place(&mut state, &mut rng);
        let snapshot = state.replicas.clone();
        let mut metrics = Metrics::new(10.0, 1.0);
        let f = Fulfillment {
            node: 0,
            item: 0,
            queries: 3,
            wait: 2.0,
        };
        StaticAllocation.after_contact(1.0, 0, 1, &mut state, &[f], &mut metrics, &mut rng);
        assert_eq!(state.replicas, snapshot);
        assert_eq!(state.transmissions, 0);
    }

    #[test]
    fn trials_differ_in_placement_but_not_counts() {
        let counts = ReplicaCounts::new(vec![2, 1, 1], 4);
        let run = |seed| {
            let mut rng = Xoshiro256::seed_from_u64(seed);
            let mut state = SimState::new(4, 3, 1);
            pinned(counts.clone()).place(&mut state, &mut rng);
            let holders: Vec<Vec<u32>> = state.caches.iter().map(|c| c.items().to_vec()).collect();
            (state.replicas.clone(), holders)
        };
        let (c1, h1) = run(1);
        let (c2, h2) = run(99);
        assert_eq!(c1, c2);
        assert_ne!(h1, h2, "placements should be shuffled per trial");
    }
}
