//! How a run reports failure: every class of failure has one kind tag and
//! one process exit code. The `impatience` CLI prints `error[tag]: …` and
//! exits with the code; the HTTP service puts the code into its error
//! envelope's `exit_code`, so a script branches on either the same way
//! (API.md's taxonomy table).

/// A class of failure, as the CLI and the service report it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FailureKind {
    /// Bad flags, values, subcommands or request fields.
    Usage,
    /// A configuration the simulator or the model refuses.
    Config,
    /// A solver rejected its instance.
    Solver,
    /// A contact trace (or a Prometheus text file) could not be read.
    Trace,
    /// A campaign checkpoint could not be read, written or matched.
    Checkpoint,
    /// The campaign itself failed (every trial panicked, …).
    Campaign,
    /// Filesystem or socket trouble.
    Io,
    /// The run finished degraded: trials skipped or condemned, load shed.
    Degraded,
    /// A verification found a violation or a disagreement.
    Verify,
    /// Regenerated results differ from the committed ones.
    Drift,
    /// The distributed runtime failed: conservation, transport, codec.
    Net,
}

impl FailureKind {
    /// The one map: each class's kind tag and exit code.
    fn row(self) -> (&'static str, u8) {
        match self {
            FailureKind::Usage => ("usage", 2),
            FailureKind::Config => ("config", 3),
            FailureKind::Solver => ("solver", 4),
            FailureKind::Trace => ("trace", 5),
            FailureKind::Checkpoint => ("checkpoint", 6),
            FailureKind::Campaign => ("campaign", 7),
            FailureKind::Io => ("io", 8),
            FailureKind::Degraded => ("degraded", 9),
            FailureKind::Verify => ("verify", 10),
            FailureKind::Drift => ("drift", 11),
            FailureKind::Net => ("net", 12),
        }
    }

    /// The tag the CLI prints as `error[tag]`.
    pub fn tag(self) -> &'static str {
        self.row().0
    }

    /// The process exit code.
    pub fn exit_code(self) -> u8 {
        self.row().1
    }
}
