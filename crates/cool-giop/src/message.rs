//! The seven GIOP messages and their headers (paper, Figure 2).
//!
//! The only message the QoS extension modifies is `Request`, which gains a
//! `sequence<QoSParameter> qos_params` field between `operation` and
//! `requesting_principal` — exactly the position shown in Figure 2-ii. The
//! field is marshalled if and only if the enclosing message announces GIOP
//! 9.9 in its header, so standard-GIOP peers interoperate untouched.

use crate::cdr::{Cdr, CdrDecoder, CdrEncoder};
use crate::error::GiopError;
use crate::qos::QoSParameter;
use crate::service_context::ServiceContextList;
use crate::version::GiopVersion;
use bytes::Bytes;

/// GIOP message type discriminants (Figure 2-i).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MsgType {
    /// Method invocation, client → server.
    Request,
    /// Invocation result, server → client.
    Reply,
    /// Client abandons an outstanding Request.
    CancelRequest,
    /// Client probes for an object's location.
    LocateRequest,
    /// Server answers a LocateRequest.
    LocateReply,
    /// Orderly connection shutdown, server → client.
    CloseConnection,
    /// Either side signals a protocol error.
    MessageError,
}

impl MsgType {
    /// Wire discriminant.
    pub fn code(self) -> u8 {
        match self {
            MsgType::Request => 0,
            MsgType::Reply => 1,
            MsgType::CancelRequest => 2,
            MsgType::LocateRequest => 3,
            MsgType::LocateReply => 4,
            MsgType::CloseConnection => 5,
            MsgType::MessageError => 6,
        }
    }

    /// Decodes a wire discriminant.
    ///
    /// # Errors
    ///
    /// [`GiopError::InvalidEnum`] for unknown codes.
    pub fn from_code(code: u8) -> Result<Self, GiopError> {
        Ok(match code {
            0 => MsgType::Request,
            1 => MsgType::Reply,
            2 => MsgType::CancelRequest,
            3 => MsgType::LocateRequest,
            4 => MsgType::LocateReply,
            5 => MsgType::CloseConnection,
            6 => MsgType::MessageError,
            other => {
                return Err(GiopError::InvalidEnum {
                    type_name: "MsgType",
                    value: other as u32,
                })
            }
        })
    }
}

/// The (possibly extended) GIOP Request header.
///
/// `qos_params` is the paper's addition; it is ignored (and must be empty)
/// when the message is marshalled as standard GIOP 1.0.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RequestHeader {
    /// Piggybacked ORB service data.
    pub service_context: ServiceContextList,
    /// Correlates the Reply with this Request.
    pub request_id: u32,
    /// `false` for one-way operations.
    pub response_expected: bool,
    /// Opaque key identifying the target object within its adapter.
    pub object_key: Vec<u8>,
    /// Name of the operation to invoke.
    pub operation: String,
    /// QoS requirements (extension; marshalled only under GIOP 9.9).
    pub qos_params: Vec<QoSParameter>,
    /// Identity of the requester (unused by COOL, kept for compliance).
    pub requesting_principal: Vec<u8>,
}

impl RequestHeader {
    /// Starts building a header with the mandatory fields.
    pub fn builder(request_id: u32, object_key: Vec<u8>, operation: &str) -> RequestHeaderBuilder {
        RequestHeaderBuilder {
            header: RequestHeader {
                service_context: ServiceContextList::empty(),
                request_id,
                response_expected: true,
                object_key,
                operation: operation.to_owned(),
                qos_params: Vec::new(),
                requesting_principal: Vec::new(),
            },
        }
    }

    /// Encodes under the given version.
    ///
    /// # Errors
    ///
    /// [`GiopError::QosOnStandardGiop`] if `qos_params` is non-empty but
    /// `version` is standard GIOP.
    pub fn encode(&self, enc: &mut CdrEncoder, version: GiopVersion) -> Result<(), GiopError> {
        if !self.qos_params.is_empty() && !version.is_qos() {
            return Err(GiopError::QosOnStandardGiop);
        }
        self.service_context.encode(enc);
        enc.put_u32(self.request_id);
        enc.put_bool(self.response_expected);
        enc.put_octet_seq(&self.object_key);
        enc.put_string(&self.operation);
        if version.is_qos() {
            enc.put_seq(&self.qos_params);
        }
        enc.put_octet_seq(&self.requesting_principal);
        Ok(())
    }

    /// Decodes under the given version.
    ///
    /// # Errors
    ///
    /// Propagates CDR errors from malformed input.
    pub fn decode(dec: &mut CdrDecoder<'_>, version: GiopVersion) -> Result<Self, GiopError> {
        let service_context = ServiceContextList::decode(dec)?;
        let request_id = dec.get_u32()?;
        let response_expected = dec.get_bool()?;
        let object_key = dec.get_octet_seq()?;
        let operation = dec.get_string()?;
        let qos_params = if version.is_qos() {
            dec.get_seq()?
        } else {
            Vec::new()
        };
        let requesting_principal = dec.get_octet_seq()?;
        Ok(RequestHeader {
            service_context,
            request_id,
            response_expected,
            object_key,
            operation,
            qos_params,
            requesting_principal,
        })
    }
}

/// Builder for [`RequestHeader`].
#[derive(Debug)]
pub struct RequestHeaderBuilder {
    header: RequestHeader,
}

impl RequestHeaderBuilder {
    /// Sets whether a Reply is expected (`false` = one-way).
    pub fn response_expected(mut self, expected: bool) -> Self {
        self.header.response_expected = expected;
        self
    }

    /// Attaches QoS parameters (forces GIOP 9.9 at encode time).
    pub fn qos_params(mut self, params: Vec<QoSParameter>) -> Self {
        self.header.qos_params = params;
        self
    }

    /// Attaches service contexts.
    pub fn service_context(mut self, list: ServiceContextList) -> Self {
        self.header.service_context = list;
        self
    }

    /// Sets the requesting principal.
    pub fn requesting_principal(mut self, principal: Vec<u8>) -> Self {
        self.header.requesting_principal = principal;
        self
    }

    /// Finishes the header.
    pub fn build(self) -> RequestHeader {
        self.header
    }
}

/// Status of a GIOP Reply.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReplyStatus {
    /// Operation succeeded; body carries the results.
    NoException,
    /// Operation raised a declared (user) exception; body carries it. The
    /// paper's QoS NACK travels this way.
    UserException,
    /// ORB-level failure; body carries the system exception.
    SystemException,
    /// Client should retry at the address in the body.
    LocationForward,
}

impl ReplyStatus {
    /// Wire discriminant.
    pub fn code(self) -> u32 {
        match self {
            ReplyStatus::NoException => 0,
            ReplyStatus::UserException => 1,
            ReplyStatus::SystemException => 2,
            ReplyStatus::LocationForward => 3,
        }
    }

    /// Decodes a wire discriminant.
    ///
    /// # Errors
    ///
    /// [`GiopError::InvalidEnum`] for unknown codes.
    pub fn from_code(code: u32) -> Result<Self, GiopError> {
        Ok(match code {
            0 => ReplyStatus::NoException,
            1 => ReplyStatus::UserException,
            2 => ReplyStatus::SystemException,
            3 => ReplyStatus::LocationForward,
            other => {
                return Err(GiopError::InvalidEnum {
                    type_name: "ReplyStatus",
                    value: other,
                })
            }
        })
    }
}

/// The GIOP Reply header.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplyHeader {
    /// Piggybacked ORB service data.
    pub service_context: ServiceContextList,
    /// Id of the Request being answered.
    pub request_id: u32,
    /// Outcome discriminator.
    pub reply_status: ReplyStatus,
}

impl ReplyHeader {
    /// Creates a reply header.
    pub fn new(request_id: u32, reply_status: ReplyStatus) -> Self {
        ReplyHeader {
            service_context: ServiceContextList::empty(),
            request_id,
            reply_status,
        }
    }
}

impl Cdr for ReplyHeader {
    fn encode(&self, enc: &mut CdrEncoder) {
        self.service_context.encode(enc);
        enc.put_u32(self.request_id);
        enc.put_u32(self.reply_status.code());
    }

    fn decode(dec: &mut CdrDecoder<'_>) -> Result<Self, GiopError> {
        Ok(ReplyHeader {
            service_context: ServiceContextList::decode(dec)?,
            request_id: dec.get_u32()?,
            reply_status: ReplyStatus::from_code(dec.get_u32()?)?,
        })
    }
}

/// The GIOP LocateRequest header.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LocateRequestHeader {
    /// Correlates the LocateReply.
    pub request_id: u32,
    /// Key of the object being located.
    pub object_key: Vec<u8>,
}

impl Cdr for LocateRequestHeader {
    fn encode(&self, enc: &mut CdrEncoder) {
        enc.put_u32(self.request_id);
        enc.put_octet_seq(&self.object_key);
    }

    fn decode(dec: &mut CdrDecoder<'_>) -> Result<Self, GiopError> {
        Ok(LocateRequestHeader {
            request_id: dec.get_u32()?,
            object_key: dec.get_octet_seq()?,
        })
    }
}

/// Status of a LocateReply.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LocateStatus {
    /// The object key is unknown here.
    UnknownObject,
    /// The object is served over this connection.
    ObjectHere,
    /// The object lives elsewhere; body carries the forward address.
    ObjectForward,
}

impl LocateStatus {
    /// Wire discriminant.
    pub fn code(self) -> u32 {
        match self {
            LocateStatus::UnknownObject => 0,
            LocateStatus::ObjectHere => 1,
            LocateStatus::ObjectForward => 2,
        }
    }

    /// Decodes a wire discriminant.
    ///
    /// # Errors
    ///
    /// [`GiopError::InvalidEnum`] for unknown codes.
    pub fn from_code(code: u32) -> Result<Self, GiopError> {
        Ok(match code {
            0 => LocateStatus::UnknownObject,
            1 => LocateStatus::ObjectHere,
            2 => LocateStatus::ObjectForward,
            other => {
                return Err(GiopError::InvalidEnum {
                    type_name: "LocateStatus",
                    value: other,
                })
            }
        })
    }
}

/// The GIOP LocateReply header.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LocateReplyHeader {
    /// Id of the LocateRequest being answered.
    pub request_id: u32,
    /// Location outcome.
    pub locate_status: LocateStatus,
}

impl Cdr for LocateReplyHeader {
    fn encode(&self, enc: &mut CdrEncoder) {
        enc.put_u32(self.request_id);
        enc.put_u32(self.locate_status.code());
    }

    fn decode(dec: &mut CdrDecoder<'_>) -> Result<Self, GiopError> {
        Ok(LocateReplyHeader {
            request_id: dec.get_u32()?,
            locate_status: LocateStatus::from_code(dec.get_u32()?)?,
        })
    }
}

/// A complete GIOP message: header variant plus (for Request/Reply) the
/// marshalled operation body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Message {
    /// Method invocation.
    Request {
        /// The (possibly QoS-extended) request header.
        header: RequestHeader,
        /// Marshalled in-parameters.
        body: Bytes,
    },
    /// Invocation result.
    Reply {
        /// The reply header.
        header: ReplyHeader,
        /// Marshalled results or exception.
        body: Bytes,
    },
    /// Abandon an outstanding request.
    CancelRequest {
        /// Id of the request to abandon.
        request_id: u32,
    },
    /// Probe an object's location.
    LocateRequest(LocateRequestHeader),
    /// Answer a location probe.
    LocateReply(LocateReplyHeader),
    /// Orderly shutdown.
    CloseConnection,
    /// Protocol error indication.
    MessageError,
}

impl Message {
    /// The message's wire type.
    pub fn msg_type(&self) -> MsgType {
        match self {
            Message::Request { .. } => MsgType::Request,
            Message::Reply { .. } => MsgType::Reply,
            Message::CancelRequest { .. } => MsgType::CancelRequest,
            Message::LocateRequest(_) => MsgType::LocateRequest,
            Message::LocateReply(_) => MsgType::LocateReply,
            Message::CloseConnection => MsgType::CloseConnection,
            Message::MessageError => MsgType::MessageError,
        }
    }

    /// The request id carried by this message, if any.
    pub fn request_id(&self) -> Option<u32> {
        match self {
            Message::Request { header, .. } => Some(header.request_id),
            Message::Reply { header, .. } => Some(header.request_id),
            Message::CancelRequest { request_id } => Some(*request_id),
            Message::LocateRequest(h) => Some(h.request_id),
            Message::LocateReply(h) => Some(h.request_id),
            Message::CloseConnection | Message::MessageError => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cdr::ByteOrder;
    use crate::qos::ParamKind;

    fn sample_qos() -> Vec<QoSParameter> {
        vec![
            QoSParameter::new(ParamKind::Throughput, 1_000_000, 2_000_000, 500_000),
            QoSParameter::new(ParamKind::Latency, 100, 1000, 0),
        ]
    }

    #[test]
    fn msg_type_codes_round_trip() {
        for t in [
            MsgType::Request,
            MsgType::Reply,
            MsgType::CancelRequest,
            MsgType::LocateRequest,
            MsgType::LocateReply,
            MsgType::CloseConnection,
            MsgType::MessageError,
        ] {
            assert_eq!(MsgType::from_code(t.code()).unwrap(), t);
        }
        assert!(MsgType::from_code(7).is_err());
    }

    #[test]
    fn request_header_round_trip_standard() {
        let h = RequestHeader::builder(42, b"key".to_vec(), "ping").build();
        let mut enc = CdrEncoder::new(ByteOrder::Big);
        h.encode(&mut enc, GiopVersion::STANDARD).unwrap();
        let bytes = enc.into_bytes();
        let mut dec = CdrDecoder::new(&bytes, ByteOrder::Big);
        let decoded = RequestHeader::decode(&mut dec, GiopVersion::STANDARD).unwrap();
        assert_eq!(decoded, h);
        assert!(dec.is_exhausted());
    }

    #[test]
    fn request_header_round_trip_qos() {
        let h = RequestHeader::builder(7, b"obj".to_vec(), "get_image")
            .qos_params(sample_qos())
            .requesting_principal(b"alice".to_vec())
            .build();
        let mut enc = CdrEncoder::new(ByteOrder::Little);
        h.encode(&mut enc, GiopVersion::QOS_EXTENDED).unwrap();
        let bytes = enc.into_bytes();
        let mut dec = CdrDecoder::new(&bytes, ByteOrder::Little);
        let decoded = RequestHeader::decode(&mut dec, GiopVersion::QOS_EXTENDED).unwrap();
        assert_eq!(decoded, h);
    }

    #[test]
    fn qos_params_on_standard_giop_rejected() {
        let h = RequestHeader::builder(1, vec![], "op")
            .qos_params(sample_qos())
            .build();
        let mut enc = CdrEncoder::new(ByteOrder::Big);
        assert_eq!(
            h.encode(&mut enc, GiopVersion::STANDARD).unwrap_err(),
            GiopError::QosOnStandardGiop
        );
    }

    #[test]
    fn standard_encoding_is_identical_with_or_without_extension_support() {
        // A header without QoS params must marshal bit-identically under
        // both versions (backwards compatibility claim of the paper).
        let h = RequestHeader::builder(3, b"k".to_vec(), "m").build();
        let mut enc1 = CdrEncoder::new(ByteOrder::Big);
        h.encode(&mut enc1, GiopVersion::STANDARD).unwrap();
        let mut enc9 = CdrEncoder::new(ByteOrder::Big);
        h.encode(&mut enc9, GiopVersion::QOS_EXTENDED).unwrap();
        // 9.9 adds exactly the empty qos sequence (4 zero bytes) before the
        // principal — the *pre-existing* fields are untouched.
        let b1 = enc1.into_bytes();
        let b9 = enc9.into_bytes();
        assert_eq!(b9.len(), b1.len() + 4);
        assert_eq!(&b9[..b1.len() - 4], &b1[..b1.len() - 4]);
    }

    #[test]
    fn reply_header_round_trip() {
        for status in [
            ReplyStatus::NoException,
            ReplyStatus::UserException,
            ReplyStatus::SystemException,
            ReplyStatus::LocationForward,
        ] {
            let h = ReplyHeader::new(9, status);
            let mut enc = CdrEncoder::new(ByteOrder::Big);
            h.encode(&mut enc);
            let bytes = enc.into_bytes();
            let mut dec = CdrDecoder::new(&bytes, ByteOrder::Big);
            assert_eq!(ReplyHeader::decode(&mut dec).unwrap(), h);
        }
    }

    #[test]
    fn reply_status_invalid_code() {
        assert!(ReplyStatus::from_code(4).is_err());
    }

    #[test]
    fn locate_headers_round_trip() {
        let req = LocateRequestHeader {
            request_id: 1,
            object_key: b"k".to_vec(),
        };
        let mut enc = CdrEncoder::new(ByteOrder::Big);
        req.encode(&mut enc);
        let bytes = enc.into_bytes();
        let mut dec = CdrDecoder::new(&bytes, ByteOrder::Big);
        assert_eq!(LocateRequestHeader::decode(&mut dec).unwrap(), req);

        for status in [
            LocateStatus::UnknownObject,
            LocateStatus::ObjectHere,
            LocateStatus::ObjectForward,
        ] {
            let rep = LocateReplyHeader {
                request_id: 2,
                locate_status: status,
            };
            let mut enc = CdrEncoder::new(ByteOrder::Little);
            rep.encode(&mut enc);
            let bytes = enc.into_bytes();
            let mut dec = CdrDecoder::new(&bytes, ByteOrder::Little);
            assert_eq!(LocateReplyHeader::decode(&mut dec).unwrap(), rep);
        }
        assert!(LocateStatus::from_code(3).is_err());
    }

    #[test]
    fn message_request_id_extraction() {
        let req = Message::Request {
            header: RequestHeader::builder(5, vec![], "op").build(),
            body: Bytes::new(),
        };
        assert_eq!(req.request_id(), Some(5));
        assert_eq!(Message::CloseConnection.request_id(), None);
        assert_eq!(
            Message::CancelRequest { request_id: 8 }.request_id(),
            Some(8)
        );
    }
}
