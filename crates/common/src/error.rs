//! Error types shared across the workspace.

use std::error::Error;
use std::fmt;

/// Control-flow signal that the currently executing transaction body must
/// unwind: the simulated hardware transaction has aborted (or the engine
/// requested a restart) and the body's effects have been discarded.
///
/// Transaction bodies receive this from every [`crate::TxnOps`] operation
/// and must propagate it (usually with `?`); the engine then retries,
/// validates, or falls back according to its own policy. The payload is an
/// opaque reason used for diagnostics only.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TxAbort {
    kind: TxAbortKind,
}

/// The broad reason a transaction body was asked to unwind.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TxAbortKind {
    /// The underlying simulated hardware transaction aborted.
    Hardware,
    /// The engine detected an inconsistency (e.g. a failed Validate check).
    Inconsistent,
}

impl TxAbort {
    /// An abort caused by the simulated hardware transaction.
    pub const fn hardware() -> Self {
        TxAbort {
            kind: TxAbortKind::Hardware,
        }
    }

    /// An abort caused by an engine-level consistency check.
    pub const fn inconsistent() -> Self {
        TxAbort {
            kind: TxAbortKind::Inconsistent,
        }
    }

    /// Returns the broad reason for the abort.
    pub const fn kind(self) -> TxAbortKind {
        self.kind
    }
}

impl fmt::Display for TxAbort {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            TxAbortKind::Hardware => write!(f, "hardware transaction aborted"),
            TxAbortKind::Inconsistent => write!(f, "transaction failed a consistency check"),
        }
    }
}

impl Error for TxAbort {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn abort_kinds_round_trip() {
        assert_eq!(TxAbort::hardware().kind(), TxAbortKind::Hardware);
        assert_eq!(TxAbort::inconsistent().kind(), TxAbortKind::Inconsistent);
    }

    #[test]
    fn errors_display_lowercase_without_period() {
        let msgs = [
            TxAbort::hardware().to_string(),
            TxAbort::inconsistent().to_string(),
        ];
        for m in msgs {
            assert!(!m.is_empty());
            assert!(!m.ends_with('.'));
            assert!(m.chars().next().map(char::is_lowercase).unwrap_or(false));
        }
    }

    #[test]
    fn errors_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<TxAbort>();
    }
}
