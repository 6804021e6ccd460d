//! ORB error type: the programmatic face of CORBA exceptions.

use cool_giop::GiopError;
use multe_qos::QosError;
use std::error::Error;
use std::fmt;
use std::time::Duration;

/// Repository id used for the QoS NACK user exception on the wire.
pub const QOS_NACK_REPO_ID: &str = "IDL:multe/QosNotSupported:1.0";

/// Errors surfaced by ORB operations.
#[derive(Debug, Clone)]
pub enum OrbError {
    /// The paper's NACK: requested QoS cannot be supported (bilateral
    /// rejection by the server or unilateral rejection by a transport).
    QosNotSupported(QosError),
    /// The target object key is not registered at the server.
    ObjectNotFound(String),
    /// The servant does not implement the requested operation.
    OperationUnknown {
        /// The object that was addressed.
        object: String,
        /// The unknown operation name.
        operation: String,
    },
    /// A user-defined exception raised by the servant.
    UserException {
        /// Repository id of the exception type.
        repo_id: String,
        /// Marshalled exception body.
        body: Vec<u8>,
    },
    /// GIOP/CDR marshalling failure.
    Marshal(GiopError),
    /// The transport below the binding failed.
    Transport(String),
    /// The binding or server is closed.
    Closed,
    /// A reply did not arrive in time. Built only by
    /// [`OrbError::request_timeout`] and [`OrbError::timeout`]; match it
    /// as `OrbError::Timeout { .. }`, or bind its [`TimedOut`].
    Timeout(TimedOut),
    /// The invocation was cancelled via `cancel`.
    Cancelled,
    /// A `RetryPolicy` gave up: its attempt or wall-clock budget ran out
    /// while the invocation kept failing. Carries the *last* underlying
    /// cause and how many attempts were made, so a budget that expires
    /// mid-backoff still surfaces what actually went wrong rather than a
    /// bare timeout.
    RetriesExhausted {
        /// Invocation attempts made before giving up (≥ 1).
        attempts: u32,
        /// The error the final attempt failed with.
        last: Box<OrbError>,
    },
    /// The peer violated the protocol.
    Protocol(String),
    /// The peer raised a system exception this ORB has no variant of its
    /// own for: `Internal`, a server's own failure. The servant may have
    /// run, so it is not retried.
    SystemException {
        /// The exception's kind, as the peer named it.
        kind: String,
        /// What the peer said of it.
        detail: String,
    },
    /// The address could not be parsed or is unsupported.
    BadAddress(String),
}

/// What an [`OrbError::Timeout`] carries. Its fields are private, so a
/// timeout is built only through the two constructors on [`OrbError`]:
/// one that names the request, and the id-less one, which `clippy.toml`
/// denies in library code unless its site says why no request exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimedOut {
    request_id: Option<u32>,
    elapsed: Duration,
}

impl TimedOut {
    /// Request id of the invocation that timed out, when the wait was
    /// attributable to a specific outstanding request (a `call` or a
    /// `DeferredReply::wait`). `None` for raw transport-level waits.
    pub fn request_id(&self) -> Option<u32> {
        self.request_id
    }

    /// How long the caller actually waited before giving up.
    pub fn elapsed(&self) -> Duration {
        self.elapsed
    }
}

impl OrbError {
    /// A timeout not attributable to a specific request id.
    pub fn timeout(elapsed: Duration) -> Self {
        OrbError::Timeout(TimedOut {
            request_id: None,
            elapsed,
        })
    }

    /// A timeout attributed to the given outstanding request.
    pub fn request_timeout(request_id: u32, elapsed: Duration) -> Self {
        OrbError::Timeout(TimedOut {
            request_id: Some(request_id),
            elapsed,
        })
    }

    /// Whether a `RetryPolicy` may transparently replay the invocation.
    ///
    /// Retryable: transport failures, a closed binding (the retry path
    /// replaces one whose connection was lost) and *unattributed* timeouts — waits that never
    /// involved a specific outstanding request, so the server cannot have
    /// started executing it. A timeout carrying a request id is **not**
    /// retryable: the request reached the wire and may have executed, and
    /// replaying it would break at-most-once semantics. See the
    /// retryability table in DESIGN.md §8.
    pub fn is_retryable(&self) -> bool {
        match self {
            OrbError::Transport(_) | OrbError::Closed => true,
            OrbError::Timeout(t) => t.request_id.is_none(),
            // Everything else — including `RetriesExhausted`, which is
            // terminal: the pipeline builds it as it gives up.
            _ => false,
        }
    }
}

impl fmt::Display for OrbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OrbError::QosNotSupported(e) => write!(f, "qos not supported: {e}"),
            OrbError::ObjectNotFound(key) => write!(f, "no object registered under key {key:?}"),
            OrbError::OperationUnknown { object, operation } => {
                write!(f, "object {object:?} has no operation {operation:?}")
            }
            OrbError::UserException { repo_id, .. } => write!(f, "user exception {repo_id}"),
            OrbError::Marshal(e) => write!(f, "marshalling failed: {e}"),
            OrbError::Transport(msg) => write!(f, "transport failure: {msg}"),
            OrbError::Closed => write!(f, "binding closed"),
            OrbError::Timeout(TimedOut {
                request_id: Some(id),
                elapsed,
            }) => write!(f, "request {id} timed out after {elapsed:?}"),
            OrbError::Timeout(TimedOut {
                request_id: None,
                elapsed,
            }) => write!(f, "reply timed out after {elapsed:?}"),
            OrbError::Cancelled => write!(f, "request cancelled"),
            OrbError::RetriesExhausted { attempts, last } => {
                write!(f, "retries exhausted after {attempts} attempts: {last}")
            }
            OrbError::Protocol(msg) => write!(f, "protocol violation: {msg}"),
            OrbError::SystemException { kind, detail } => {
                write!(f, "the peer raised system exception {kind}: {detail}")
            }
            OrbError::BadAddress(a) => write!(f, "bad or unsupported address: {a}"),
        }
    }
}

impl Error for OrbError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            OrbError::QosNotSupported(e) => Some(e),
            OrbError::Marshal(e) => Some(e),
            OrbError::RetriesExhausted { last, .. } => Some(last.as_ref()),
            _ => None,
        }
    }
}

impl From<GiopError> for OrbError {
    fn from(e: GiopError) -> Self {
        OrbError::Marshal(e)
    }
}

impl From<QosError> for OrbError {
    fn from(e: QosError) -> Self {
        OrbError::QosNotSupported(e)
    }
}

impl From<dacapo::DacapoError> for OrbError {
    fn from(e: dacapo::DacapoError) -> Self {
        match e {
            dacapo::DacapoError::Closed => OrbError::Closed,
            #[expect(
                clippy::disallowed_methods,
                reason = "a Da CaPo receive knows no request: `invoke_once` rewraps a call's wait as `request_timeout` with its id"
            )]
            dacapo::DacapoError::Timeout(d) => OrbError::timeout(d),
            dacapo::DacapoError::ResourceDenied { resource } => {
                OrbError::QosNotSupported(QosError::AdmissionDenied { resource })
            }
            dacapo::DacapoError::NoFeasibleConfiguration { missing_function } => {
                OrbError::QosNotSupported(QosError::Rejected(format!(
                    "no protocol configuration provides {missing_function}"
                )))
            }
            other => OrbError::Transport(other.to_string()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions() {
        let e: OrbError = GiopError::PeerMessageError.into();
        assert!(matches!(e, OrbError::Marshal(_)));
        let e: OrbError = QosError::Rejected("nope".into()).into();
        assert!(matches!(e, OrbError::QosNotSupported(_)));
        let e: OrbError = dacapo::DacapoError::Closed.into();
        assert!(matches!(e, OrbError::Closed));
        let e: OrbError = dacapo::DacapoError::ResourceDenied {
            resource: "bandwidth".into(),
        }
        .into();
        assert!(matches!(
            e,
            OrbError::QosNotSupported(QosError::AdmissionDenied { .. })
        ));
    }

    #[test]
    fn display_and_source() {
        let e = OrbError::QosNotSupported(QosError::Rejected("r".into()));
        assert!(e.to_string().contains("qos"));
        assert!(e.source().is_some());
        assert!(OrbError::Closed.source().is_none());
    }

    #[test]
    fn timeout_carries_attribution() {
        let e = OrbError::request_timeout(42, Duration::from_millis(250));
        assert!(matches!(&e, OrbError::Timeout(t) if t.request_id() == Some(42)));
        let msg = e.to_string();
        assert!(msg.contains("42"), "{msg}");
        assert!(msg.contains("250"), "{msg}");

        let e = OrbError::timeout(Duration::from_secs(1));
        assert!(matches!(&e, OrbError::Timeout(t) if t.request_id().is_none()));
        assert!(e.to_string().contains("reply timed out"));
    }

    #[test]
    fn retryability_follows_the_design_table() {
        assert!(OrbError::Transport("reset".into()).is_retryable());
        assert!(OrbError::Closed.is_retryable());
        assert!(OrbError::timeout(Duration::from_millis(5)).is_retryable());
        // Attributed timeouts may have executed server-side: at-most-once
        // forbids a replay.
        assert!(!OrbError::request_timeout(1, Duration::from_millis(5)).is_retryable());
        assert!(!OrbError::QosNotSupported(QosError::Rejected("r".into())).is_retryable());
        assert!(!OrbError::ObjectNotFound("k".into()).is_retryable());
        assert!(!OrbError::Cancelled.is_retryable());
        assert!(!OrbError::Protocol("p".into()).is_retryable());
        let internal = OrbError::SystemException {
            kind: "Internal".into(),
            detail: "d".into(),
        };
        assert!(!internal.is_retryable());
        assert!(!OrbError::BadAddress("a".into()).is_retryable());
        assert!(!OrbError::RetriesExhausted {
            attempts: 3,
            last: Box::new(OrbError::Closed),
        }
        .is_retryable());
    }

    /// Pins the exhaustion error's shape: attempt count plus the last
    /// underlying cause, visible through `Display` and `source()`.
    #[test]
    fn retries_exhausted_carries_last_cause_and_attempts() {
        let e = OrbError::RetriesExhausted {
            attempts: 3,
            last: Box::new(OrbError::Transport("connection refused".into())),
        };
        let msg = e.to_string();
        assert!(msg.contains("3 attempts"), "{msg}");
        assert!(msg.contains("connection refused"), "{msg}");
        match &e {
            OrbError::RetriesExhausted { attempts, last } => {
                assert_eq!(*attempts, 3);
                assert!(matches!(last.as_ref(), OrbError::Transport(_)));
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(e.source().expect("source").to_string().contains("refused"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<OrbError>();
    }
}
