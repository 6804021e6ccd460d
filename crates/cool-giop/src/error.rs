//! Error type for GIOP marshalling and framing.

use std::error::Error;
use std::fmt;

/// Errors produced while encoding or decoding GIOP/CDR data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GiopError {
    /// The buffer ended before the value was complete.
    Underflow {
        /// Bytes needed to continue decoding.
        needed: usize,
        /// Bytes remaining in the buffer.
        remaining: usize,
    },
    /// A boolean octet was neither 0 nor 1.
    InvalidBool(u8),
    /// A string was not valid UTF-8 or lacked its NUL terminator.
    InvalidString(String),
    /// An enum discriminant had no corresponding variant.
    InvalidEnum {
        /// Name of the enum type being decoded.
        type_name: &'static str,
        /// The offending discriminant.
        value: u32,
    },
    /// The 4-byte magic was not `GIOP`.
    BadMagic([u8; 4]),
    /// The version field named a GIOP version this ORB does not speak.
    UnsupportedVersion {
        /// Major version from the header.
        major: u8,
        /// Minor version from the header.
        minor: u8,
    },
    /// A declared length exceeded a sanity limit or the enclosing buffer.
    LengthOverflow {
        /// The declared length.
        declared: u64,
        /// The applicable limit.
        limit: u64,
    },
    /// Peer sent a `MessageError` GIOP message.
    PeerMessageError,
    /// The peer failed to marshal or unmarshal and said so in a `Marshal`
    /// system exception (CORBA's MARSHAL); what it said.
    PeerMarshal(String),
    /// A Request carrying QoS parameters was encoded as standard GIOP 1.0,
    /// which has no field for them.
    QosOnStandardGiop,
    /// The message body was shorter or longer than the header's
    /// `message_size` announced.
    SizeMismatch {
        /// Size announced in the header.
        announced: usize,
        /// Size actually available.
        actual: usize,
    },
}

impl fmt::Display for GiopError {
    #[expect(
        clippy::missing_inline_in_public_items,
        reason = "cold: formatting is off the call path"
    )]
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GiopError::Underflow { needed, remaining } => {
                write!(
                    f,
                    "cdr underflow: needed {needed} bytes, {remaining} remaining"
                )
            }
            GiopError::InvalidBool(b) => write!(f, "invalid boolean octet {b:#04x}"),
            GiopError::InvalidString(msg) => write!(f, "invalid cdr string: {msg}"),
            GiopError::InvalidEnum { type_name, value } => {
                write!(f, "invalid discriminant {value} for enum {type_name}")
            }
            GiopError::BadMagic(m) => write!(f, "bad giop magic {m:?}"),
            GiopError::UnsupportedVersion { major, minor } => {
                write!(f, "unsupported giop version {major}.{minor}")
            }
            GiopError::LengthOverflow { declared, limit } => {
                write!(f, "declared length {declared} exceeds limit {limit}")
            }
            GiopError::PeerMessageError => write!(f, "peer reported a giop message error"),
            GiopError::PeerMarshal(detail) => write!(f, "the peer failed to marshal: {detail}"),
            GiopError::QosOnStandardGiop => {
                write!(
                    f,
                    "qos parameters cannot be marshalled into standard giop 1.0"
                )
            }
            GiopError::SizeMismatch { announced, actual } => {
                write!(
                    f,
                    "message size mismatch: header announced {announced}, got {actual}"
                )
            }
        }
    }
}

impl Error for GiopError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_key_numbers() {
        let e = GiopError::Underflow {
            needed: 8,
            remaining: 3,
        };
        assert!(e.to_string().contains('8'));
        assert!(e.to_string().contains('3'));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<GiopError>();
    }
}
