//! The generic message protocol layer.
//!
//! COOL's ORB core supports multiple message protocols behind one generic
//! layer (Section 2): **GIOP** (with the QoS extension) and the
//! proprietary, lighter **COOL protocol**. Frames are self-describing via
//! their 4-byte magic, so a server endpoint serves both protocols on the
//! same channel.
//!
//! Both wire formats live *behind* this module: a binding and a server hand
//! it protocol-neutral parts (`encode_request`, `encode_reply`) and get
//! protocol-neutral events back (`decode_frame`), so neither can tell which
//! protocol a peer speaks. The paper's whole QoS extension (one version
//! byte, one `qos_params` field, one NACK exception) is confined to this
//! layer for the same reason.

pub mod cool;
pub mod giop;

use self::cool::CoolMessage;
use crate::adapter::DispatchOutcome;
use crate::error::OrbError;
use bytes::Bytes;
use cool_giop::prelude::*;
use multe_qos::{GrantedQoS, QosError};

/// Result of a two-way invocation: reply body plus any granted QoS the
/// server attached.
pub type ReplyResult = Result<(Bytes, Option<GrantedQoS>), OrbError>;

/// Which message protocol a frame belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WireProtocol {
    /// OMG GIOP (1.0 or the 9.9 QoS extension).
    Giop,
    /// The proprietary COOL message protocol.
    Cool,
}

impl WireProtocol {
    /// Whether a request of this protocol has room for a trace context. A
    /// binding asks once, so it stamps no trace the wire would drop.
    pub fn carries_trace(self) -> bool {
        self == WireProtocol::Giop
    }
}

/// The one error table, server side: the `(kind, detail)` an error travels
/// as — the body of a GIOP system exception, the fields of a COOL
/// `Exception`. Errors without a kind of their own travel as `Internal`.
fn exception_of(err: &OrbError) -> (&'static str, String) {
    match err {
        OrbError::ObjectNotFound(key) => ("ObjectNotFound", key.clone()),
        OrbError::OperationUnknown { object, operation } => {
            ("OperationUnknown", format!("{object}/{operation}"))
        }
        OrbError::QosNotSupported(reason) => ("QosNotSupported", reason.to_string()),
        other => ("Internal", other.to_string()),
    }
}

/// The one error table, client side: the inverse of [`exception_of`].
fn error_of(kind: &str, detail: String) -> OrbError {
    match kind {
        "ObjectNotFound" => OrbError::ObjectNotFound(detail),
        "OperationUnknown" => {
            let (object, operation) = detail.split_once('/').unwrap_or((detail.as_str(), ""));
            OrbError::OperationUnknown {
                object: object.to_owned(),
                operation: operation.to_owned(),
            }
        }
        "QosNotSupported" => OrbError::QosNotSupported(QosError::Rejected(detail)),
        _ => OrbError::Protocol(format!("system exception {kind}: {detail}")),
    }
}

/// Encodes a request of `protocol` from its protocol-neutral parts:
/// [`OrbError::Marshal`] if that fails, [`OrbError::Protocol`] if the
/// protocol cannot carry the QoS parameters given.
#[allow(clippy::too_many_arguments)]
pub(crate) fn encode_request(
    protocol: WireProtocol,
    request_id: u32,
    object_key: &[u8],
    operation: &str,
    args: Bytes,
    qos_params: &[QoSParameter],
    response_expected: bool,
    trace: Option<&RequestTraceContext>,
    order: ByteOrder,
) -> Result<Bytes, OrbError> {
    match protocol {
        WireProtocol::Giop => giop::make_request(
            request_id,
            object_key,
            operation,
            args,
            qos_params.to_vec(),
            response_expected,
            trace,
            order,
        ),
        WireProtocol::Cool if !qos_params.is_empty() => Err(OrbError::Protocol(
            "the cool message protocol carries no qos parameters; use giop".into(),
        )),
        WireProtocol::Cool => Ok(CoolMessage::Request {
            request_id,
            object_key: object_key.to_vec(),
            operation: operation.to_owned(),
            one_way: !response_expected,
            args,
        }
        .encode()),
    }
}

/// A reply off the wire whose status is not yet read: interpretation is a
/// separate step, so a reply nobody waits for any more costs none.
pub(crate) enum InboundReply {
    /// A GIOP `Reply`: what [`giop::interpret_reply`] takes.
    Giop(ReplyHeader, Bytes, ByteOrder),
    /// Decoding a COOL `Reply` or `Exception` leaves nothing to read.
    Cool(ReplyResult),
}

impl InboundReply {
    /// Reads the status: the result body and granted QoS, or the
    /// [`OrbError`] the exception stands for.
    pub(crate) fn interpret(self) -> ReplyResult {
        match self {
            InboundReply::Giop(header, body, order) => giop::interpret_reply(&header, &body, order),
            InboundReply::Cool(result) => result,
        }
    }
}

/// How to marshal the answer to a request: in the protocol — and for GIOP
/// the version and byte order — the request arrived in.
#[derive(Debug, Clone, Copy)]
pub(crate) enum ReplyFormat {
    Giop {
        version: GiopVersion,
        order: ByteOrder,
    },
    Cool,
}

/// An invocation off the wire. `qos_params` is empty, and `trace` absent,
/// where the protocol has no field for them.
pub(crate) struct InboundRequest {
    pub(crate) request_id: u32,
    pub(crate) object_key: Vec<u8>,
    pub(crate) operation: String,
    pub(crate) args: Bytes,
    pub(crate) qos_params: Vec<QoSParameter>,
    pub(crate) one_way: bool,
    /// The client half of a distributed trace, if the request carried one.
    pub(crate) trace: Option<RequestTraceContext>,
    pub(crate) reply_format: ReplyFormat,
}

/// What one message of an inbound frame means, whichever side reads it.
pub(crate) enum Event {
    Request(InboundRequest),
    /// The client abandoned the request with this id.
    Cancel(u32),
    /// An object-location probe, answered with [`encode_locate_reply`].
    Locate {
        request_id: u32,
        object_key: Vec<u8>,
        reply_format: ReplyFormat,
    },
    Reply {
        request_id: u32,
        /// The server half of a distributed trace, if one was echoed.
        trace: Option<ReplyTraceContext>,
        reply: InboundReply,
    },
    /// The peer announced an orderly shutdown of the connection.
    Closing,
    /// A well-formed message neither side acts on (`MessageError`,
    /// `LocateReply`).
    Unexpected,
    /// Not a message of any protocol spoken here.
    Malformed,
}

/// Decodes an inbound frame — its protocol told by the magic — and hands
/// each message in it to `handle`, in wire order, until `handle` returns
/// `false` (the connection is over; the rest of the frame is not looked at).
/// Returns whether every message was accepted. GIOP frames self-delimit,
/// so a peer may pack several messages into one transport frame: it is
/// split here — zero-copy views, a one-message frame yields exactly itself.
pub(crate) fn decode_frame(frame: &Bytes, mut handle: impl FnMut(Event) -> bool) -> bool {
    match frame.get(..4) {
        Some(b"GIOP") => split_frames(frame).all(|sub| handle(giop::event(sub))),
        Some(b"COOL") => handle(cool::event(frame)),
        _ => handle(Event::Malformed),
    }
}

/// Marshals the outcome of a dispatch as the reply to `request_id`: the
/// result (with granted QoS and the server's trace half where the format
/// has room), or the exception the error travels as — the adapter's QoS
/// NACK and a servant raising `QosNotSupported` are the same reply.
/// [`OrbError::Marshal`] if encoding fails.
pub(crate) fn encode_reply(
    request_id: u32,
    outcome: DispatchOutcome,
    trace: Option<&ReplyTraceContext>,
    format: ReplyFormat,
) -> Result<Bytes, OrbError> {
    let result = match outcome {
        DispatchOutcome::Success { body, granted } => Ok((Bytes::from(body), granted)),
        DispatchOutcome::QosNack(reason) => Err(OrbError::QosNotSupported(reason)),
        DispatchOutcome::Error(err) => Err(err),
    };
    match format {
        ReplyFormat::Giop { version, order } => {
            giop::make_reply(request_id, result, trace, version, order)
        }
        ReplyFormat::Cool => Ok(match result {
            Ok((body, _granted)) => CoolMessage::Reply { request_id, body },
            // A user exception's body does not fit `Exception { kind,
            // detail }`: it travels as `Internal`, like any other error.
            Err(err) => {
                let (kind, detail) = exception_of(&err);
                CoolMessage::Exception {
                    request_id,
                    kind: kind.into(),
                    detail,
                }
            }
        }
        .encode()),
    }
}

/// Marshals the answer to an [`Event::Locate`] probe; `None` if that
/// fails, or for a format whose protocol has no locate message.
pub(crate) fn encode_locate_reply(
    request_id: u32,
    object_here: bool,
    format: ReplyFormat,
) -> Option<Bytes> {
    let ReplyFormat::Giop { version, order } = format else {
        return None;
    };
    let locate_status = if object_here {
        LocateStatus::ObjectHere
    } else {
        LocateStatus::UnknownObject
    };
    let reply = Message::LocateReply(LocateReplyHeader {
        request_id,
        locate_status,
    });
    encode_message(&reply, version, order).ok()
}

// GIOP's bodyless control messages serve a peer of either protocol: COOL
// has none of its own, and every endpoint reads both.

/// The frame telling a server that the client abandoned `request_id`:
/// `CancelRequest`, read back as [`Event::Cancel`].
pub(crate) fn cancel_frame(request_id: u32) -> Option<Bytes> {
    giop::bodyless(&Message::CancelRequest { request_id })
}

/// The frame a server answers [`Event::Malformed`] with before it ends the
/// connection, as a conforming ORB would: `MessageError`.
pub(crate) fn message_error_frame() -> Option<Bytes> {
    giop::bodyless(&Message::MessageError)
}

/// The frame announcing an orderly shutdown to a peer: `CloseConnection`
/// (Figure 2-i), read back as [`Event::Closing`].
pub(crate) fn close_connection_frame() -> Option<Bytes> {
    giop::bodyless(&Message::CloseConnection)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_of_no_protocol_are_malformed() {
        for junk in [&b"HTTP/1.1"[..], b"GI", b"", b"GIOP", b"COOL...."] {
            let mut events = 0;
            decode_frame(&Bytes::copy_from_slice(junk), |event| {
                assert!(matches!(event, Event::Malformed), "{junk:?}");
                events += 1;
                true
            });
            assert_eq!(events, 1, "{junk:?}");
        }
    }

    /// What the client reads after `outcome` went through `encode_reply`
    /// and back through `decode_frame` + `interpret`.
    fn round_trip(outcome: DispatchOutcome, format: ReplyFormat) -> ReplyResult {
        let frame = encode_reply(5, outcome, None, format).unwrap();
        let mut result = None;
        decode_frame(&frame, |event| match event {
            Event::Reply {
                request_id, reply, ..
            } => {
                assert_eq!(request_id, 5);
                result = Some(reply.interpret());
                true
            }
            _ => panic!("not a reply"),
        });
        result.expect("the frame decodes to one reply")
    }

    /// The one error table, both directions, every format: each error an
    /// adapter or servant can hand back is encoded as a reply and read
    /// back as the `OrbError` the client must see. The third column is
    /// what the COOL protocol reads where it differs from GIOP: its
    /// `Exception { kind, detail }` cannot carry a user exception's body.
    #[test]
    fn error_table_is_symmetric_in_every_format() {
        let nack = QosError::Infeasible {
            dimension: "throughput",
            requested: 9,
            offered: Some(1),
        };
        let unknown = OrbError::OperationUnknown {
            object: "obj".into(),
            operation: "ping".into(),
        };
        let user = OrbError::UserException {
            repo_id: "IDL:app/Bad:1.0".into(),
            body: b"detail".to_vec(),
        };
        let other = OrbError::Transport("disk on fire".into());
        let internal =
            |e: &OrbError| OrbError::Protocol(format!("system exception Internal: {e}"));
        let rows: Vec<(OrbError, OrbError, Option<OrbError>)> = vec![
            (
                OrbError::ObjectNotFound("ghost".into()),
                OrbError::ObjectNotFound("ghost".into()),
                None,
            ),
            (unknown.clone(), unknown, None),
            (
                OrbError::QosNotSupported(nack.clone()),
                OrbError::QosNotSupported(QosError::Rejected(nack.to_string())),
                None,
            ),
            (user.clone(), user.clone(), Some(internal(&user))),
            (other.clone(), internal(&other), None),
        ];
        let giop = |version, order| ReplyFormat::Giop { version, order };
        let formats = [
            giop(GiopVersion::STANDARD, ByteOrder::Big),
            giop(GiopVersion::STANDARD, ByteOrder::Little),
            giop(GiopVersion::QOS_EXTENDED, ByteOrder::Big),
            giop(GiopVersion::QOS_EXTENDED, ByteOrder::Little),
            ReplyFormat::Cool,
        ];
        for (raised, expected, cool) in &rows {
            for format in formats {
                let expected = match (format, cool) {
                    (ReplyFormat::Cool, Some(cool)) => cool,
                    _ => expected,
                };
                // The adapter's own NACK and a servant raising the same
                // error are one row of the table.
                let mut outcomes = vec![DispatchOutcome::Error(raised.clone())];
                if let OrbError::QosNotSupported(reason) = raised {
                    outcomes.push(DispatchOutcome::QosNack(reason.clone()));
                }
                for outcome in outcomes {
                    let sent = format!("{outcome:?} over {format:?}");
                    let got = round_trip(outcome, format).unwrap_err();
                    assert_eq!(format!("{got:?}"), format!("{expected:?}"), "{sent}");
                }
            }
        }
    }

    #[test]
    fn success_round_trips_in_every_format() {
        let outcome = || DispatchOutcome::Success {
            body: b"result".to_vec(),
            granted: GrantedQoS::best_effort(),
        };
        for format in [
            ReplyFormat::Giop {
                version: GiopVersion::STANDARD,
                order: ByteOrder::Little,
            },
            ReplyFormat::Cool,
        ] {
            let (body, granted) = round_trip(outcome(), format).unwrap();
            assert_eq!(&body[..], b"result");
            assert_eq!(granted, None);
        }
    }
}
