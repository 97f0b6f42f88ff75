//! Knobs of the distributed runtime: contact-window geometry, message
//! delay, retry/backoff budget, request deadline and chaos hooks. The
//! heartbeat and checkpoint periods are constants of the runtime, and
//! QCR runs with its default knobs, like the engine it is checked
//! against.

use crate::error::NetError;

/// Heartbeat period of every live node (minutes).
pub(crate) const HEARTBEAT_EVERY: f64 = 120.0;
/// The supervisor condemns a node silent for this long (minutes).
pub(crate) const HEARTBEAT_TIMEOUT: f64 = 360.0;
/// Period of the volatile-state checkpoint each node recovers from
/// after a crash (minutes).
pub(crate) const CHECKPOINT_EVERY: f64 = 60.0;
const _: () = assert!(HEARTBEAT_TIMEOUT > HEARTBEAT_EVERY);

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

/// Configuration of the distributed QCR runtime.
///
/// Times are minutes, like everything else in the simulator. The
/// defaults put the whole message exchange (advert → request → fulfill,
/// plus a handoff/ack round) well inside one contact window, and the
/// window itself well under typical inter-contact times (1/μ ≈ 10–20
/// minutes), so the clean-transport runtime is statistically the engine.
#[derive(Clone, Debug)]
pub struct NetConfig {
    /// How long a trace contact keeps the link up (minutes).
    pub window: f64,
    /// One-way message delay (minutes).
    pub msg_delay: f64,
    /// Initial retransmission timeout; doubles per attempt.
    pub rto_base: f64,
    /// Cap on the (pre-jitter) backoff delay.
    pub rto_cap: f64,
    /// Send attempts before a transfer is parked as an ack timeout.
    pub max_attempts: u32,
    /// Request deadline budget: a pending request older than this is
    /// abandoned and settled as unfulfilled. `None` waits until the
    /// horizon (the engine's semantics).
    pub deadline: Option<f64>,
    /// Hard cap on kernel events per trial (anti-wedge backstop);
    /// `0` derives a generous bound from the workload.
    pub max_events: u64,
    /// Scheduled chaos injections.
    pub chaos: Vec<ChaosEvent>,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            window: 0.05,
            msg_delay: 0.002,
            rto_base: 0.01,
            rto_cap: 0.08,
            max_attempts: 64,
            deadline: None,
            max_events: 0,
            chaos: Vec::new(),
        }
    }
}

impl NetConfig {
    /// Validate the runtime parameters.
    pub fn validate(&self) -> Result<(), NetError> {
        let pos = |x: f64| x > 0.0 && x.is_finite();
        if !pos(self.window) || !pos(self.msg_delay) || !pos(self.rto_base) || !pos(self.rto_cap) {
            return Err(NetError::Config(format!(
                "window/msg_delay/rto_base/rto_cap must be positive and finite \
                 (got {}/{}/{}/{})",
                self.window, self.msg_delay, self.rto_base, self.rto_cap
            )));
        }
        if self.msg_delay >= self.window {
            return Err(NetError::Config(format!(
                "message delay {} must be below the contact window {} or nothing \
                 can ever be delivered",
                self.msg_delay, self.window
            )));
        }
        if let Some(d) = self.deadline {
            if !pos(d) {
                return Err(NetError::Config(format!(
                    "request deadline must be positive and finite (got {d})"
                )));
            }
        }
        if self.max_attempts == 0 {
            return Err(NetError::Config("max_attempts must be at least 1".into()));
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
            window: 0.0,
            ..NetConfig::default()
        };
        assert!(cfg.validate().is_err());
        cfg.window = 0.05;
        cfg.msg_delay = 0.06;
        assert!(cfg.validate().is_err());
        cfg.msg_delay = 0.002;
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
