//! The `QoSParameter` wire structure (paper, Figure 2-ii).
//!
//! ```text
//! struct QoSParameter {
//!     unsigned long param_type;
//!     unsigned long request_value;
//!     long          max_value;
//!     long          min_value;
//! };
//! ```
//!
//! The client expresses requirements as an *array of QoSParameter
//! structures* handed to the stub via `setQoSParameter`; the stub marshals
//! them into the extended Request header. `request_value` is the desired
//! operating point; `min_value`/`max_value` bound the range the client will
//! accept, which is what gives the server room to negotiate.

use crate::cdr::{Cdr, CdrDecoder, CdrEncoder};
use crate::error::GiopError;

/// Well-known QoS parameter dimensions used by MULTE.
///
/// The paper leaves `param_type` as an open `unsigned long`; these are the
/// dimensions the MULTE prototype negotiates. Unknown types survive a
/// round-trip unparsed (forward compatibility), represented as
/// [`ParamKind::Other`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ParamKind {
    /// Sustained throughput in bits per second.
    Throughput,
    /// End-to-end one-way latency bound in microseconds.
    Latency,
    /// Delay jitter bound in microseconds.
    Jitter,
    /// Residual error tolerance: 0 = best effort … 3 = fully reliable.
    Reliability,
    /// In-order delivery requirement (0 = unordered, 1 = ordered).
    Ordering,
    /// Confidentiality requirement (0 = none, 1 = encrypted).
    Encryption,
    /// A dimension this ORB does not interpret.
    Other(u32),
}

impl ParamKind {
    /// Wire representation of this dimension.
    #[inline]
    pub fn code(self) -> u32 {
        match self {
            ParamKind::Throughput => 1,
            ParamKind::Latency => 2,
            ParamKind::Jitter => 3,
            ParamKind::Reliability => 4,
            ParamKind::Ordering => 5,
            ParamKind::Encryption => 6,
            ParamKind::Other(code) => code,
        }
    }

    /// Decodes a wire code. Never fails: unknown codes map to
    /// [`ParamKind::Other`].
    #[inline]
    pub fn from_code(code: u32) -> Self {
        match code {
            1 => ParamKind::Throughput,
            2 => ParamKind::Latency,
            3 => ParamKind::Jitter,
            4 => ParamKind::Reliability,
            5 => ParamKind::Ordering,
            6 => ParamKind::Encryption,
            other => ParamKind::Other(other),
        }
    }
}

impl std::fmt::Display for ParamKind {
    #[expect(
        clippy::missing_inline_in_public_items,
        reason = "cold: formatting is off the call path"
    )]
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParamKind::Throughput => write!(f, "throughput"),
            ParamKind::Latency => write!(f, "latency"),
            ParamKind::Jitter => write!(f, "jitter"),
            ParamKind::Reliability => write!(f, "reliability"),
            ParamKind::Ordering => write!(f, "ordering"),
            ParamKind::Encryption => write!(f, "encryption"),
            ParamKind::Other(code) => write!(f, "param-type-{code}"),
        }
    }
}

/// One QoS requirement, exactly as marshalled on the wire (Figure 2-ii).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct QoSParameter {
    /// Dimension selector (`param_type` in the IDL struct).
    pub param_type: u32,
    /// Desired operating point.
    pub request_value: u32,
    /// Largest acceptable value.
    pub max_value: i32,
    /// Smallest acceptable value.
    pub min_value: i32,
}

impl QoSParameter {
    /// Creates a parameter for a known dimension.
    #[inline]
    pub fn new(kind: ParamKind, request_value: u32, max_value: i32, min_value: i32) -> Self {
        QoSParameter {
            param_type: kind.code(),
            request_value,
            max_value,
            min_value,
        }
    }

    /// The dimension this parameter constrains.
    #[inline]
    pub fn kind(&self) -> ParamKind {
        ParamKind::from_code(self.param_type)
    }

    /// Whether `value` lies inside the acceptable `[min, max]` range.
    #[inline]
    pub fn accepts(&self, value: i64) -> bool {
        value >= self.min_value as i64 && value <= self.max_value as i64
    }
}

impl Cdr for QoSParameter {
    #[inline]
    fn encode(&self, enc: &mut CdrEncoder) {
        enc.put_u32(self.param_type);
        enc.put_u32(self.request_value);
        enc.put_i32(self.max_value);
        enc.put_i32(self.min_value);
    }

    #[inline]
    fn decode(dec: &mut CdrDecoder<'_>) -> Result<Self, GiopError> {
        Ok(QoSParameter {
            param_type: dec.get_u32()?,
            request_value: dec.get_u32()?,
            max_value: dec.get_i32()?,
            min_value: dec.get_i32()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cdr::ByteOrder;

    #[test]
    fn kind_codes_round_trip() {
        for kind in [
            ParamKind::Throughput,
            ParamKind::Latency,
            ParamKind::Jitter,
            ParamKind::Reliability,
            ParamKind::Ordering,
            ParamKind::Encryption,
            ParamKind::Other(99),
        ] {
            assert_eq!(ParamKind::from_code(kind.code()), kind);
        }
    }

    #[test]
    fn wire_layout_is_sixteen_bytes() {
        let p = QoSParameter::new(ParamKind::Latency, 100, 500, 10);
        let mut enc = CdrEncoder::new(ByteOrder::Big);
        p.encode(&mut enc);
        assert_eq!(enc.len(), 16);
    }

    #[test]
    fn cdr_round_trip_both_orders() {
        let p = QoSParameter::new(ParamKind::Throughput, 5_000_000, i32::MAX, -7);
        for order in [ByteOrder::Big, ByteOrder::Little] {
            let mut enc = CdrEncoder::new(order);
            p.encode(&mut enc);
            let bytes = enc.into_bytes();
            let mut dec = CdrDecoder::new(&bytes, order);
            assert_eq!(QoSParameter::decode(&mut dec).unwrap(), p);
        }
    }

    #[test]
    fn accepts_range() {
        let p = QoSParameter::new(ParamKind::Latency, 100, 500, 10);
        assert!(p.accepts(10));
        assert!(p.accepts(500));
        assert!(p.accepts(100));
        assert!(!p.accepts(9));
        assert!(!p.accepts(501));
    }

    #[test]
    fn unknown_param_type_survives_round_trip() {
        let p = QoSParameter {
            param_type: 4242,
            request_value: 1,
            max_value: 2,
            min_value: 0,
        };
        let mut enc = CdrEncoder::new(ByteOrder::Big);
        p.encode(&mut enc);
        let bytes = enc.into_bytes();
        let mut dec = CdrDecoder::new(&bytes, ByteOrder::Big);
        let q = QoSParameter::decode(&mut dec).unwrap();
        assert_eq!(q.kind(), ParamKind::Other(4242));
        assert_eq!(q, p);
    }

    #[test]
    fn display_names() {
        assert_eq!(ParamKind::Throughput.to_string(), "throughput");
        assert_eq!(ParamKind::Other(7).to_string(), "param-type-7");
    }
}
