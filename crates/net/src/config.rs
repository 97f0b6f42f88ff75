//! What a caller sets on the distributed runtime: the request deadline
//! and the chaos hooks. The transport geometry, the retry budget, the
//! heartbeat and checkpoint periods are constants of the runtime, and
//! QCR runs with its default knobs, like the engine it is checked
//! against.
//!
//! The constants put the whole message exchange (advert → request →
//! fulfill, plus a handoff/ack round) well inside one contact window,
//! and the window itself well under typical inter-contact times (1/μ ≈
//! 10–20 minutes), so the clean-transport runtime is statistically the
//! engine.

use crate::error::NetError;

/// How long a trace contact keeps the link up (minutes).
pub(crate) const WINDOW: f64 = 0.05;
/// One-way message delay (minutes).
pub const MSG_DELAY: f64 = 0.002;
/// Initial retransmission timeout (minutes); doubles per attempt.
pub(crate) const RTO_BASE: f64 = 0.01;
/// Cap on the (pre-jitter) backoff delay (minutes).
pub(crate) const RTO_CAP: f64 = 0.08;
/// Send attempts before a transfer is parked as an ack timeout.
pub(crate) const MAX_ATTEMPTS: u32 = 64;
/// Heartbeat period of every live node (minutes).
pub(crate) const HEARTBEAT_EVERY: f64 = 120.0;
/// The supervisor condemns a node silent for this long (minutes).
pub(crate) const HEARTBEAT_TIMEOUT: f64 = 360.0;
/// Period of the volatile-state checkpoint each node recovers from
/// after a crash (minutes).
pub(crate) const CHECKPOINT_EVERY: f64 = 60.0;
const _: () = assert!(HEARTBEAT_TIMEOUT > HEARTBEAT_EVERY);
// A frame must land before the window that carried it closes.
const _: () = assert!(MSG_DELAY < WINDOW);

/// A scheduled chaos injection against one node task.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ChaosEvent {
    /// When the event fires (minutes).
    pub t: f64,
    /// The victim node.
    pub node: u32,
    /// What happens to it.
    pub kind: ChaosKind,
}

/// The two chaos primitives the kernel understands.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ChaosKind {
    /// Crash the node (volatile state lost, durable mandate ledger
    /// survives) and restart it `down_for` minutes later from its last
    /// checkpoint.
    Kill {
        /// Downtime before the restart (minutes).
        down_for: f64,
    },
    /// Wedge the node: it stops processing messages, timers, and
    /// heartbeats but is never restarted by the churn schedule. Only the
    /// supervisor's heartbeat timeout removes it (degrading the run).
    Stall,
}

/// Configuration of the distributed QCR runtime. Times are minutes,
/// like everything else in the simulator.
#[derive(Clone, Debug, Default)]
pub struct NetConfig {
    /// Request deadline budget: a pending request older than this is
    /// abandoned and settled as unfulfilled. `None` waits until the
    /// horizon (the engine's semantics).
    pub deadline: Option<f64>,
    /// Scheduled chaos injections.
    pub chaos: Vec<ChaosEvent>,
}

impl NetConfig {
    /// Validate the runtime parameters.
    pub fn validate(&self) -> Result<(), NetError> {
        let pos = |x: f64| x > 0.0 && x.is_finite();
        if let Some(d) = self.deadline {
            if !pos(d) {
                return Err(NetError::Config(format!(
                    "request deadline must be positive and finite (got {d})"
                )));
            }
        }
        for c in &self.chaos {
            if !(c.t >= 0.0 && c.t.is_finite()) {
                return Err(NetError::Config(format!(
                    "chaos event time must be finite and >= 0 (got {})",
                    c.t
                )));
            }
            if let ChaosKind::Kill { down_for } = c.kind {
                if !pos(down_for) {
                    return Err(NetError::Config(format!(
                        "chaos kill downtime must be positive (got {down_for})"
                    )));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate() {
        NetConfig::default().validate().unwrap();
    }

    #[test]
    fn bad_parameters_are_rejected() {
        let mut cfg = NetConfig {
            deadline: Some(-5.0),
            ..NetConfig::default()
        };
        assert!(cfg.validate().is_err());
        cfg.deadline = None;
        cfg.chaos.push(ChaosEvent {
            t: -1.0,
            node: 0,
            kind: ChaosKind::Stall,
        });
        assert!(cfg.validate().is_err());
        cfg.chaos[0] = ChaosEvent {
            t: 1.0,
            node: 0,
            kind: ChaosKind::Kill { down_for: 0.0 },
        };
        assert!(cfg.validate().is_err());
        cfg.chaos.clear();
        cfg.validate().unwrap();
    }
}
