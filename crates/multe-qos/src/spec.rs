//! High-level QoS specifications and their wire mapping.
//!
//! A [`QoSSpec`] is what a client builds before calling
//! `setQoSParameter`. Every dimension is optional — an empty spec means
//! "best effort, use standard GIOP". Each constrained dimension carries a
//! requested operating point plus the `[min, max]` range the client will
//! accept, mirroring the `QoSParameter { request_value, max_value,
//! min_value }` wire struct one-to-one.

use crate::error::QosError;
use cool_giop::qos::{ParamKind, QoSParameter};
use std::time::Duration;

/// A requested operating point with its acceptable `[min, max]` range.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Range {
    /// Desired value.
    pub requested: u32,
    /// Smallest acceptable value.
    pub min: i32,
    /// Largest acceptable value.
    pub max: i32,
}

impl Range {
    /// Creates a range; callers usually go through [`QoSSpecBuilder`].
    pub fn new(requested: u32, min: i32, max: i32) -> Self {
        Range {
            requested,
            min,
            max,
        }
    }

    /// An exact requirement: `min = max = requested`.
    ///
    /// # Panics
    ///
    /// Panics if `value` exceeds `i32::MAX` (not representable in the wire
    /// struct's `long` bounds).
    pub fn exact(value: u32) -> Self {
        #[expect(
            clippy::expect_used,
            reason = "documented # Panics contract: exact() requires value <= i32::MAX"
        )]
        let v = i32::try_from(value).expect("exact qos value must fit in i32");
        Range {
            requested: value,
            min: v,
            max: v,
        }
    }

    /// Whether the range is internally consistent.
    pub fn is_valid(&self) -> bool {
        let req = self.requested as i64;
        self.min as i64 <= self.max as i64 && req >= self.min as i64 && req <= self.max as i64
    }
}

/// Reliability classes, ordered from weakest to strongest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Reliability {
    /// No error detection at all.
    BestEffort,
    /// Corrupted packets are detected and dropped.
    Checked,
    /// Corrupted or lost packets are retransmitted.
    Reliable,
}

impl Reliability {
    /// Wire encoding (the `request_value` of a Reliability parameter).
    pub fn level(self) -> u32 {
        match self {
            Reliability::BestEffort => 0,
            Reliability::Checked => 1,
            Reliability::Reliable => 2,
        }
    }

    /// Decodes a wire level, saturating above the strongest class.
    pub fn from_level(level: u32) -> Self {
        match level {
            0 => Reliability::BestEffort,
            1 => Reliability::Checked,
            _ => Reliability::Reliable,
        }
    }
}

/// A complete QoS specification for a binding or a method invocation.
///
/// Construct with [`QoSSpec::builder`]. Convert to the wire format with
/// [`QoSSpec::to_params`] and back with [`QoSSpec::from_params`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct QoSSpec {
    throughput: Option<Range>,
    latency: Option<Range>,
    jitter: Option<Range>,
    reliability: Option<Reliability>,
    ordered: Option<bool>,
    encrypted: Option<bool>,
    /// Parameters with types this ORB does not interpret, preserved verbatim.
    other: Vec<QoSParameter>,
}

impl QoSSpec {
    /// Starts building a spec.
    pub fn builder() -> QoSSpecBuilder {
        QoSSpecBuilder {
            spec: QoSSpec::default(),
        }
    }

    /// A best-effort spec: no constraints at all.
    pub fn best_effort() -> Self {
        QoSSpec::default()
    }

    /// Whether no dimension is constrained (standard GIOP suffices).
    pub fn is_best_effort(&self) -> bool {
        self.throughput.is_none()
            && self.latency.is_none()
            && self.jitter.is_none()
            && self.reliability.is_none()
            && self.ordered.is_none()
            && self.encrypted.is_none()
            && self.other.is_empty()
    }

    /// Requested throughput range in bits per second.
    pub fn throughput(&self) -> Option<Range> {
        self.throughput
    }

    /// Requested latency range in microseconds.
    pub fn latency(&self) -> Option<Range> {
        self.latency
    }

    /// Requested jitter range in microseconds.
    pub fn jitter(&self) -> Option<Range> {
        self.jitter
    }

    /// Requested reliability class.
    pub fn reliability(&self) -> Option<Reliability> {
        self.reliability
    }

    /// Requested ordering (`Some(true)` = must be in-order).
    pub fn ordered(&self) -> Option<bool> {
        self.ordered
    }

    /// Requested confidentiality.
    pub fn encrypted(&self) -> Option<bool> {
        self.encrypted
    }

    /// Uninterpreted parameters carried through verbatim.
    pub fn other_params(&self) -> &[QoSParameter] {
        &self.other
    }

    /// Validates all ranges.
    ///
    /// # Errors
    ///
    /// [`QosError::InvalidRange`] naming the first broken dimension.
    pub fn validate(&self) -> Result<(), QosError> {
        for (range, name) in [
            (self.throughput, "throughput"),
            (self.latency, "latency"),
            (self.jitter, "jitter"),
        ] {
            if let Some(r) = range {
                if !r.is_valid() {
                    return Err(QosError::InvalidRange { dimension: name });
                }
            }
        }
        Ok(())
    }

    /// Marshals the spec into the wire-format parameter array
    /// (Figure 2-ii) in a canonical dimension order.
    pub fn to_params(&self) -> Vec<QoSParameter> {
        let mut params = Vec::new();
        if let Some(r) = self.throughput {
            params.push(QoSParameter::new(
                ParamKind::Throughput,
                r.requested,
                r.max,
                r.min,
            ));
        }
        if let Some(r) = self.latency {
            params.push(QoSParameter::new(
                ParamKind::Latency,
                r.requested,
                r.max,
                r.min,
            ));
        }
        if let Some(r) = self.jitter {
            params.push(QoSParameter::new(
                ParamKind::Jitter,
                r.requested,
                r.max,
                r.min,
            ));
        }
        if let Some(rel) = self.reliability {
            params.push(QoSParameter::new(
                ParamKind::Reliability,
                rel.level(),
                Reliability::Reliable.level() as i32,
                rel.level() as i32,
            ));
        }
        if let Some(ord) = self.ordered {
            let v = ord as u32;
            params.push(QoSParameter::new(ParamKind::Ordering, v, 1, v as i32));
        }
        if let Some(enc) = self.encrypted {
            let v = enc as u32;
            params.push(QoSParameter::new(ParamKind::Encryption, v, 1, v as i32));
        }
        params.extend_from_slice(&self.other);
        params
    }

    /// Reconstructs a spec from a wire-format parameter array. Unknown
    /// parameter types are preserved in [`QoSSpec::other_params`]; repeated
    /// known types keep the last occurrence.
    pub fn from_params(params: &[QoSParameter]) -> Self {
        let mut spec = QoSSpec::default();
        for p in params {
            let range = Range {
                requested: p.request_value,
                min: p.min_value,
                max: p.max_value,
            };
            match p.kind() {
                ParamKind::Throughput => spec.throughput = Some(range),
                ParamKind::Latency => spec.latency = Some(range),
                ParamKind::Jitter => spec.jitter = Some(range),
                ParamKind::Reliability => {
                    spec.reliability = Some(Reliability::from_level(p.request_value))
                }
                ParamKind::Ordering => spec.ordered = Some(p.request_value != 0),
                ParamKind::Encryption => spec.encrypted = Some(p.request_value != 0),
                ParamKind::Other(_) => spec.other.push(*p),
            }
        }
        spec
    }
}

/// Builder for [`QoSSpec`].
#[derive(Debug)]
pub struct QoSSpecBuilder {
    spec: QoSSpec,
}

impl QoSSpecBuilder {
    /// Requires sustained throughput: `requested` bps, accepting anything
    /// in `[min, max]` bps. Values must fit `u32`/`i32` (≈ 2.1 Gbit/s for
    /// the bounds; the wire struct's `long` fields impose this).
    pub fn throughput_bps(mut self, requested: u32, min: i32, max: i32) -> Self {
        self.spec.throughput = Some(Range::new(requested, min, max));
        self
    }

    /// Requires end-to-end latency: ranges in **microseconds**.
    pub fn latency(mut self, requested: Duration, min: Duration, max: Duration) -> Self {
        self.spec.latency = Some(Range::new(
            requested.as_micros() as u32,
            min.as_micros() as i32,
            max.as_micros() as i32,
        ));
        self
    }

    /// Requires bounded delay jitter: ranges in **microseconds**.
    pub fn jitter(mut self, requested: Duration, min: Duration, max: Duration) -> Self {
        self.spec.jitter = Some(Range::new(
            requested.as_micros() as u32,
            min.as_micros() as i32,
            max.as_micros() as i32,
        ));
        self
    }

    /// Requires a reliability class (the class is also the minimum; the
    /// server may upgrade).
    pub fn reliability(mut self, r: Reliability) -> Self {
        self.spec.reliability = Some(r);
        self
    }

    /// Requires in-order delivery (or explicitly waives it).
    pub fn ordered(mut self, ordered: bool) -> Self {
        self.spec.ordered = Some(ordered);
        self
    }

    /// Requires confidentiality (or explicitly waives it).
    pub fn encrypted(mut self, encrypted: bool) -> Self {
        self.spec.encrypted = Some(encrypted);
        self
    }

    /// Carries an uninterpreted parameter through to the peer.
    pub fn other(mut self, param: QoSParameter) -> Self {
        self.spec.other.push(param);
        self
    }

    /// Finishes the spec.
    pub fn build(self) -> QoSSpec {
        self.spec
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn best_effort_is_empty() {
        let s = QoSSpec::best_effort();
        assert!(s.is_best_effort());
        assert!(s.to_params().is_empty());
        assert!(s.validate().is_ok());
    }

    #[test]
    fn builder_sets_dimensions() {
        let s = QoSSpec::builder()
            .throughput_bps(1000, 500, 2000)
            .latency(
                Duration::from_millis(5),
                Duration::ZERO,
                Duration::from_millis(50),
            )
            .reliability(Reliability::Reliable)
            .ordered(true)
            .encrypted(false)
            .build();
        assert!(!s.is_best_effort());
        assert_eq!(s.throughput().unwrap().requested, 1000);
        assert_eq!(s.latency().unwrap().requested, 5000);
        assert_eq!(s.reliability(), Some(Reliability::Reliable));
        assert_eq!(s.ordered(), Some(true));
        assert_eq!(s.encrypted(), Some(false));
    }

    #[test]
    fn params_round_trip() {
        let s = QoSSpec::builder()
            .throughput_bps(5_000_000, 1_000_000, 10_000_000)
            .jitter(
                Duration::from_micros(100),
                Duration::ZERO,
                Duration::from_micros(500),
            )
            .reliability(Reliability::Checked)
            .ordered(true)
            .build();
        let params = s.to_params();
        let back = QoSSpec::from_params(&params);
        assert_eq!(back.throughput(), s.throughput());
        assert_eq!(back.jitter(), s.jitter());
        assert_eq!(back.reliability(), s.reliability());
        assert_eq!(back.ordered(), s.ordered());
    }

    #[test]
    fn unknown_params_preserved() {
        let exotic = QoSParameter {
            param_type: 77,
            request_value: 1,
            max_value: 2,
            min_value: 0,
        };
        let s = QoSSpec::builder().other(exotic).build();
        let params = s.to_params();
        let back = QoSSpec::from_params(&params);
        assert_eq!(back.other_params(), &[exotic]);
        assert!(!back.is_best_effort());
    }

    #[test]
    fn invalid_range_detected() {
        let s = QoSSpec::builder().throughput_bps(100, 200, 50).build();
        assert_eq!(
            s.validate().unwrap_err(),
            QosError::InvalidRange {
                dimension: "throughput"
            }
        );
    }

    #[test]
    fn range_validity() {
        assert!(Range::new(5, 1, 10).is_valid());
        assert!(!Range::new(5, 6, 10).is_valid());
        assert!(!Range::new(5, 1, 4).is_valid());
        assert!(Range::exact(7).is_valid());
    }

    #[test]
    fn reliability_ordering_and_levels() {
        assert!(Reliability::Reliable > Reliability::Checked);
        assert!(Reliability::Checked > Reliability::BestEffort);
        for r in [
            Reliability::BestEffort,
            Reliability::Checked,
            Reliability::Reliable,
        ] {
            assert_eq!(Reliability::from_level(r.level()), r);
        }
        assert_eq!(Reliability::from_level(99), Reliability::Reliable);
    }

    #[test]
    fn canonical_param_order_is_stable() {
        let s = QoSSpec::builder()
            .encrypted(true)
            .throughput_bps(1, 0, 2)
            .ordered(false)
            .build();
        let kinds: Vec<ParamKind> = s.to_params().iter().map(|p| p.kind()).collect();
        assert_eq!(
            kinds,
            vec![
                ParamKind::Throughput,
                ParamKind::Ordering,
                ParamKind::Encryption
            ]
        );
    }
}
