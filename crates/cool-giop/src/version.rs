//! GIOP version handling.
//!
//! The paper differentiates the two protocol variants through the version
//! field in the GIOP message header: standard GIOP is major 1, minor 0; the
//! QoS extension announces itself as major 9, minor 9 (Section 4.2). A
//! receiver decides from this field alone whether a Request carries the
//! `qos_params` sequence.

use crate::error::GiopError;

/// A GIOP protocol version (major, minor).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GiopVersion {
    /// Major version number.
    pub major: u8,
    /// Minor version number.
    pub minor: u8,
}

impl GiopVersion {
    /// Standard GIOP 1.0 as mandated by CORBA 2.0.
    pub const STANDARD: GiopVersion = GiopVersion { major: 1, minor: 0 };

    /// The QoS extension's version marker, 9.9 (paper, Section 4.2).
    pub const QOS_EXTENDED: GiopVersion = GiopVersion { major: 9, minor: 9 };

    /// Whether this version carries QoS parameters in Request headers.
    #[inline]
    pub fn is_qos(self) -> bool {
        self == GiopVersion::QOS_EXTENDED
    }

    /// Validates a version read from the wire.
    ///
    /// # Errors
    ///
    /// [`GiopError::UnsupportedVersion`] for anything other than 1.0
    /// or 9.9 — this ORB speaks exactly the two variants from the paper.
    #[inline]
    pub fn from_wire(major: u8, minor: u8) -> Result<Self, GiopError> {
        let v = GiopVersion { major, minor };
        if v == GiopVersion::STANDARD || v == GiopVersion::QOS_EXTENDED {
            Ok(v)
        } else {
            Err(GiopError::UnsupportedVersion { major, minor })
        }
    }
}

impl std::fmt::Display for GiopVersion {
    #[expect(
        clippy::missing_inline_in_public_items,
        reason = "cold: formatting is off the call path"
    )]
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "GIOP {}.{}", self.major, self.minor)
    }
}

impl Default for GiopVersion {
    #[inline]
    fn default() -> Self {
        GiopVersion::STANDARD
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_match_paper() {
        assert_eq!(GiopVersion::STANDARD, GiopVersion { major: 1, minor: 0 });
        assert_eq!(
            GiopVersion::QOS_EXTENDED,
            GiopVersion { major: 9, minor: 9 }
        );
    }

    #[test]
    fn qos_detection() {
        assert!(!GiopVersion::STANDARD.is_qos());
        assert!(GiopVersion::QOS_EXTENDED.is_qos());
    }

    #[test]
    fn wire_validation() {
        assert!(GiopVersion::from_wire(1, 0).is_ok());
        assert!(GiopVersion::from_wire(9, 9).is_ok());
        assert!(matches!(
            GiopVersion::from_wire(1, 2),
            Err(GiopError::UnsupportedVersion { major: 1, minor: 2 })
        ));
        assert!(GiopVersion::from_wire(2, 0).is_err());
    }

    #[test]
    fn display() {
        assert_eq!(GiopVersion::STANDARD.to_string(), "GIOP 1.0");
        assert_eq!(GiopVersion::QOS_EXTENDED.to_string(), "GIOP 9.9");
    }

    #[test]
    fn default_is_standard() {
        assert_eq!(GiopVersion::default(), GiopVersion::STANDARD);
    }
}
