//! Typed error taxonomy of the distributed runtime.
//!
//! In `impatience netrun` a [`NetError::Config`] exits 3, like every
//! config error, and the other variants exit **12**. Transport weather is never an error: a send on a closed link, a
//! contact window that closed before the peers exchanged a single
//! advert and a transfer that exhausted its retry budget (its mandates
//! stay escrowed, so conservation holds) are counted in `NetStats`, the
//! two timeouts also as fault events, and the run goes on. What remains
//! is a run configured with parameters the runtime cannot honor, a frame
//! that fails to decode, and the one failure that is always a bug rather
//! than weather: a violated mandate conservation invariant at quiesce.

use std::fmt;

use crate::wire::WireError;

/// Everything that can go wrong inside the distributed QCR runtime.
#[derive(Clone, Debug, PartialEq)]
pub enum NetError {
    /// The quiesce-time mandate audit failed: minted mandates are not
    /// exactly accounted for by executions, discards, node pools, and
    /// in-flight escrow. Always a protocol bug, never injected weather.
    ConservationViolation {
        /// Mandates minted over the trial.
        minted: u64,
        /// Mandates consumed by producing (or rejecting) a copy.
        executed: u64,
        /// Mandates destroyed at pool-cap clamps.
        discarded: u64,
        /// Mandates sitting in node pools at quiesce.
        pooled: u64,
        /// Mandates still escrowed in unapplied transfers at quiesce.
        escrowed: u64,
    },
    /// A wire frame failed to decode.
    Codec(WireError),
    /// The run was configured with parameters the runtime cannot honor.
    Config(String),
}

impl NetError {
    /// Stable machine-readable class name (manifest / log field).
    pub fn kind(&self) -> &'static str {
        match self {
            NetError::ConservationViolation { .. } => "conservation_violation",
            NetError::Codec(_) => "codec",
            NetError::Config(_) => "config",
        }
    }
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::ConservationViolation {
                minted,
                executed,
                discarded,
                pooled,
                escrowed,
            } => write!(
                f,
                "mandate conservation violated: minted {minted} != executed {executed} \
                 + discarded {discarded} + pooled {pooled} + escrowed {escrowed} \
                 (= {})",
                executed + discarded + pooled + escrowed
            ),
            NetError::Codec(e) => write!(f, "wire codec: {e}"),
            NetError::Config(msg) => write!(f, "net config: {msg}"),
        }
    }
}

impl std::error::Error for NetError {}

impl From<WireError> for NetError {
    fn from(e: WireError) -> Self {
        NetError::Codec(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_kind_cover_every_variant() {
        let cases: Vec<NetError> = vec![
            NetError::ConservationViolation {
                minted: 10,
                executed: 4,
                discarded: 1,
                pooled: 3,
                escrowed: 1,
            },
            NetError::Codec(WireError::Truncated { need: 6, have: 2 }),
            NetError::Config("bad".into()),
        ];
        let kinds: Vec<&str> = cases.iter().map(|e| e.kind()).collect();
        assert_eq!(kinds, ["conservation_violation", "codec", "config"]);
        for e in &cases {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn conservation_message_shows_the_imbalance() {
        let e = NetError::ConservationViolation {
            minted: 10,
            executed: 4,
            discarded: 1,
            pooled: 3,
            escrowed: 1,
        };
        let s = e.to_string();
        assert!(s.contains("minted 10"), "{s}");
        assert!(s.contains("= 9"), "{s}");
    }
}
