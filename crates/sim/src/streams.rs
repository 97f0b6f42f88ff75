//! Every random stream of every runtime, and the order it forks in.
//!
//! Two roots: the **trial root** `seed_from_u64(seed)` and the **fault
//! root** `seed_from_u64(seed ^ fault_seed.rotate_left(23))`. Every other
//! generator is a fork (`split`) of a root under its own id, and a fork
//! draws one word from its root, so the fork *order* below is part of
//! every recorded bit. With fault seed 0 the roots are one generator, so
//! the ids are distinct across both (`tests`).
//!
//! | stream | root | forked | consumers |
//! |---|---|---|---|
//! | contacts | trial | first (none for a trace) | the Poisson contact sampler |
//! | slots | trial | first | the discrete engine's slot contacts |
//! | the root itself | trial | — | placement, then demand and the policy |
//! | net node `i` | trial | after the first arrival, `i` in order | the net node's timers and QCR |
//! | churn node `n` | fault | first, `n` in order (churn only) | the churn schedule, both engines and net |
//! | drops, cache faults | fault | after churn, in that order | the Gilbert chain, the slot-fault clock |
//! | messages | fault (a fresh one) | first | the net transport's loss, duplication and reorder |
//! | sharded contacts | trial | first: 16 shards, then 120 lanes | the lanes' Poisson samplers |
//! | sharded requests, policy | trial | next: 16 requests, 16 shard, 120 lane | per-task arrivals and QCR; the root then places |
//! | sharded drops, cache | fault | 136 lanes in order, then the clock | the lanes' chains, the boundary's clock |

use impatience_core::rng::Xoshiro256;

use crate::sharded::{CROSS_LANES, LOGICAL_SHARDS};

const CONTACTS: u64 = 0xC0217AC7_57BEA000;
const SLOTS: u64 = 0xD15C_2E7E_5107_0001;
const NET_NODE: u64 = 0xFA17_0005_0DE5_EED5;
/// Node `n`'s churn stream is the fault root's fork of this id XOR `n`.
pub(crate) const CHURN_STREAM_ID: u64 = 0xFA17_0001_C4B2_9D01;
const DROPS: u64 = 0xFA17_0002_D209_BA55;
const CACHE_FAULTS: u64 = 0xFA17_0003_5107_FA11;
const MESSAGES: u64 = 0xFA17_0004_AE55_A6E5;
const LANE_CONTACTS: u64 = 0x5AAD_0C01_7AC7_0000;
const SHARD_REQUESTS: u64 = 0x5AAD_0E02_12E9_0000;
const SHARD_POLICY: u64 = 0x5AAD_0203_90C1_0000;
const LANE_POLICY: u64 = 0x5AAD_0204_C205_0000;
const LANE_DROPS: u64 = 0x5AAD_FA17_0002_0000;
const SHARDED_CACHE_FAULTS: u64 = 0x5AAD_FA17_0003_0000;

/// Contact lanes of the sharded engine: one per shard, one per pair.
const TASK_LANES: usize = LOGICAL_SHARDS + CROSS_LANES;

/// The trial root of `seed`.
pub(crate) fn trial(seed: u64) -> Xoshiro256 {
    Xoshiro256::seed_from_u64(seed)
}

/// The fault root of trial `seed` under `fault_seed`.
pub(crate) fn fault(seed: u64, fault_seed: u64) -> Xoshiro256 {
    Xoshiro256::seed_from_u64(seed ^ fault_seed.rotate_left(23))
}

/// The Poisson contact stream, off the trial root.
pub(crate) fn contacts(trial: &mut Xoshiro256) -> Xoshiro256 {
    trial.split(CONTACTS)
}

/// The slot contact stream, off the trial root.
pub(crate) fn slots(trial: &mut Xoshiro256) -> Xoshiro256 {
    trial.split(SLOTS)
}

/// Node `n`'s churn stream (`stream` = [`CHURN_STREAM_ID`] XOR `n`), off the fault root.
pub(crate) fn churn(fault: &mut Xoshiro256, stream: u64) -> Xoshiro256 {
    fault.split(stream)
}

/// The contact-drop and cache-fault streams, off the fault root.
pub(crate) fn drops_and_cache(fault: &mut Xoshiro256) -> (Xoshiro256, Xoshiro256) {
    (fault.split(DROPS), fault.split(CACHE_FAULTS))
}

/// Net node `node`'s stream, off the trial root.
pub fn net_node(trial: &mut Xoshiro256, node: usize) -> Xoshiro256 {
    trial.split(NET_NODE ^ node as u64)
}

/// The net transport's message-chaos stream: the first fork of a fresh
/// fault root of trial `seed` under `fault_seed`.
pub fn messages(seed: u64, fault_seed: u64) -> Xoshiro256 {
    fault(seed, fault_seed).split(MESSAGES)
}

/// One sharded contact lane's streams (drops with faults only).
pub(crate) struct TaskStreams {
    pub(crate) contacts: Xoshiro256,
    pub(crate) policy: Xoshiro256,
    pub(crate) drops: Option<Xoshiro256>,
}

/// Every stream of one sharded trial: the root after the forks (it
/// places), the 16 shards' then the 120 cross lanes' tasks, the shards'
/// requests, and the cache-fault clock's (with faults only).
pub(crate) struct Sharded {
    pub(crate) placement: Xoshiro256,
    pub(crate) tasks: Vec<TaskStreams>,
    pub(crate) requests: Vec<Xoshiro256>,
    pub(crate) cache_faults: Option<Xoshiro256>,
}

/// The sharded trial `seed`'s streams; the fault streams fork only with
/// a fault seed (active faults).
pub(crate) fn sharded(seed: u64, fault_seed: Option<u64>) -> Sharded {
    let mut root = trial(seed);
    let contacts = forks(&mut root, LANE_CONTACTS, TASK_LANES);
    let requests = forks(&mut root, SHARD_REQUESTS, LOGICAL_SHARDS);
    let mut policy = forks(&mut root, SHARD_POLICY, LOGICAL_SHARDS);
    policy.extend(forks(&mut root, LANE_POLICY, CROSS_LANES));
    let mut fault_root = fault_seed.map(|f| fault(seed, f));
    let drops: Vec<Option<Xoshiro256>> = (0..TASK_LANES)
        .map(|l| fault_root.as_mut().map(|f| f.split(LANE_DROPS ^ l as u64)))
        .collect();
    let tasks = contacts.into_iter().zip(policy).zip(drops);
    Sharded {
        placement: root,
        tasks: tasks
            .map(|((contacts, policy), drops)| TaskStreams {
                contacts,
                policy,
                drops,
            })
            .collect(),
        requests,
        cache_faults: fault_root.map(|mut f| f.split(SHARDED_CACHE_FAULTS)),
    }
}

/// `root`'s forks `id ^ i` for `i` in `0..n`, in order.
fn forks(root: &mut Xoshiro256, id: u64, n: usize) -> Vec<Xoshiro256> {
    (0..n).map(|i| root.split(id ^ i as u64)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_ids_are_distinct_across_both_roots() {
        // Each id with the indices XOR'd into it: nodes for churn and net
        // nodes, the 136 shard/lane tasks for the sharded families.
        const NODES: u64 = 1 << 20;
        const TASKS: u64 = TASK_LANES as u64;
        let families = [
            (CONTACTS, 1),
            (SLOTS, 1),
            (NET_NODE, NODES),
            (CHURN_STREAM_ID, NODES),
            (DROPS, 1),
            (CACHE_FAULTS, 1),
            (MESSAGES, 1),
            (LANE_CONTACTS, TASKS),
            (SHARD_REQUESTS, TASKS),
            (SHARD_POLICY, TASKS),
            (LANE_POLICY, TASKS),
            (LANE_DROPS, TASKS),
            (SHARDED_CACHE_FAULTS, 1),
        ];
        let mut ids: Vec<u64> = families
            .iter()
            .flat_map(|&(id, n)| (0..n).map(move |i| id ^ i))
            .collect();
        let total = ids.len();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), total, "two streams share an id");
    }
}
