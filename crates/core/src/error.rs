//! Typed errors for recoverable conditions on the Lynx control plane.

use std::fmt;

/// Error type returned by lynx-core setup and enqueue paths.
///
/// Only *recoverable* conditions are represented — programming errors (an
/// out-of-range mqueue index, an oversized payload) still panic, matching
/// the convention that invariants are asserted while operational conditions
/// are reported.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum Error {
    /// An mqueue ring was full and the request could not be enqueued. The
    /// caller may retry later, shed load, or pick another queue.
    Backpressure {
        /// Label of the full mqueue.
        queue: String,
    },
    /// A configuration was rejected at build time (zero slots, undersized
    /// memory, missing listener, ...).
    Config(String),
    /// One configuration field violated an invariant — the typed form
    /// produced by [`Validate`](crate::Validate) implementations.
    /// [`LynxServerBuilder::build`](crate::LynxServerBuilder::build)
    /// aggregates these into a single [`Error::Config`]; code validating
    /// one config in isolation sees them directly and can match on the
    /// field structurally.
    InvalidConfig {
        /// Dotted path of the offending field, e.g. `pipeline.snic_cores`.
        field: &'static str,
        /// Why the value was rejected.
        reason: String,
    },
    /// The admission controller rejected the request before any dispatch
    /// work (or RDMA verb) was done: the service is past the capacity even
    /// its maximum scale-out can serve within the SLO, so the request is
    /// shed instead of queued (see `lynx_core::control`). Clients observe
    /// an immediate empty reply and may back off.
    Overloaded {
        /// Index of the tenant service that shed the request.
        service: usize,
    },
    /// A request matched no registered tenant function
    /// ([`crate::tenancy::Tenancy::decide`]); it is shed with the empty
    /// marker reply. (A reply with no usable return address is not an
    /// error value: the server sheds it and counts `server.unroutable`.)
    Unroutable {
        /// Index of the tenant service the request arrived on.
        service: usize,
    },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Backpressure { queue } => {
                write!(f, "mqueue '{queue}' is full (backpressure)")
            }
            Error::Config(msg) => write!(f, "configuration error: {msg}"),
            Error::InvalidConfig { field, reason } => {
                write!(f, "invalid configuration: {field}: {reason}")
            }
            Error::Overloaded { service } => write!(
                f,
                "service {service} is overloaded; request shed by admission control"
            ),
            Error::Unroutable { service } => write!(
                f,
                "response of service {service} has no routable return address"
            ),
        }
    }
}

impl std::error::Error for Error {}

/// Result alias used throughout lynx-core's fallible paths.
pub type Result<T> = std::result::Result<T, Error>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_display_their_context() {
        let e = Error::Backpressure {
            queue: "gpu0+0x0".into(),
        };
        assert_eq!(e.to_string(), "mqueue 'gpu0+0x0' is full (backpressure)");
        let e = Error::Config("slots must be a power of two".into());
        assert!(e.to_string().contains("power of two"));
        let e = Error::InvalidConfig {
            field: "pipeline.snic_cores",
            reason: "needs at least one SNIC core".into(),
        };
        assert_eq!(
            e.to_string(),
            "invalid configuration: pipeline.snic_cores: needs at least one SNIC core"
        );
        let e = Error::Overloaded { service: 2 };
        assert_eq!(
            e.to_string(),
            "service 2 is overloaded; request shed by admission control"
        );
    }

    #[test]
    fn error_is_std_error() {
        fn takes_std(_: &dyn std::error::Error) {}
        takes_std(&Error::Config("x".into()));
    }
}
