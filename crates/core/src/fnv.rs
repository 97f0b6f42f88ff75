//! FNV-1a, 64-bit: the workspace's one content hash. It addresses specs
//! and artifacts (`fnv1a:<16 hex digits>`), fingerprints checkpoints and
//! digests the sharded engine's events.

/// The FNV-1a offset basis: the hash of no input.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// One FNV-1a step over a 64-bit word.
#[inline]
pub fn fnv(h: u64, x: u64) -> u64 {
    (h ^ x).wrapping_mul(0x0000_0100_0000_01b3)
}

/// FNV-1a over `bytes`, formatted `fnv1a:<16 hex digits>`.
pub fn fnv1a_hash(bytes: &[u8]) -> String {
    let h = bytes.iter().fold(FNV_OFFSET, |h, &b| fnv(h, b.into()));
    format!("fnv1a:{h:016x}")
}
