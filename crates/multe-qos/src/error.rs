//! Error type for QoS negotiation and admission.

use std::error::Error;
use std::fmt;

/// Errors raised during QoS negotiation and admission.
///
/// `Infeasible` is the programmatic form of the paper's NACK: the server
/// (bilateral) or the transport layer (unilateral) cannot satisfy the
/// requested range, and the ORB converts it into a CORBA user exception for
/// the client.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QosError {
    /// A dimension cannot be satisfied within the requested `[min, max]`.
    Infeasible {
        /// Human-readable dimension name ("throughput", "latency", …).
        dimension: &'static str,
        /// The client's requested operating point.
        requested: i64,
        /// The best the server/transport can offer (as a value in the
        /// dimension's unit), if anything.
        offered: Option<i64>,
    },
    /// The spec contained an internally inconsistent range (min > max, or
    /// requested outside [min, max]).
    InvalidRange {
        /// Dimension with the broken range.
        dimension: &'static str,
    },
    /// Local resource admission failed (unilateral negotiation; raised by
    /// the transport, see `dacapo::resource`).
    AdmissionDenied {
        /// What resource ran out.
        resource: String,
    },
    /// The peer rejected negotiation for a reason of its own.
    Rejected(String),
}

impl QosError {
    /// Short stable code used when marshalling the error into a CORBA user
    /// exception body.
    pub fn code(&self) -> u32 {
        match self {
            QosError::Infeasible { .. } => 1,
            QosError::InvalidRange { .. } => 2,
            QosError::AdmissionDenied { .. } => 3,
            QosError::Rejected(_) => 4,
        }
    }
}

impl fmt::Display for QosError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QosError::Infeasible {
                dimension,
                requested,
                offered,
            } => match offered {
                Some(o) => write!(
                    f,
                    "qos infeasible: {dimension} requested {requested}, best offer {o}"
                ),
                None => write!(
                    f,
                    "qos infeasible: {dimension} requested {requested}, no offer"
                ),
            },
            QosError::InvalidRange { dimension } => {
                write!(f, "invalid qos range for {dimension}")
            }
            QosError::AdmissionDenied { resource } => {
                write!(f, "resource admission denied: {resource}")
            }
            QosError::Rejected(reason) => write!(f, "qos negotiation rejected: {reason}"),
        }
    }
}

impl Error for QosError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_distinct() {
        let errors = [
            QosError::Infeasible {
                dimension: "x",
                requested: 1,
                offered: None,
            },
            QosError::InvalidRange { dimension: "x" },
            QosError::AdmissionDenied {
                resource: "bw".into(),
            },
            QosError::Rejected("no".into()),
        ];
        let mut codes: Vec<u32> = errors.iter().map(|e| e.code()).collect();
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(codes.len(), errors.len());
    }

    #[test]
    fn display_includes_offer_when_present() {
        let e = QosError::Infeasible {
            dimension: "throughput",
            requested: 100,
            offered: Some(50),
        };
        assert!(e.to_string().contains("50"));
        let e2 = QosError::Infeasible {
            dimension: "throughput",
            requested: 100,
            offered: None,
        };
        assert!(e2.to_string().contains("no offer"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<QosError>();
    }
}
